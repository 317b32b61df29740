// Package experiments regenerates every experiment table defined in
// DESIGN.md's experiment index (E1–E9). The paper itself — a short
// framework paper — prints no numbered result tables; each experiment
// here validates one of its quantitative claims (Example 1's numbers, the
// §3.2 correlation and manipulation arguments, the §2 overlap and
// scalability arguments, the §3.4 rank synthesization alternatives, the
// §6 taxonomy-shape question, and the §4.1 infrastructure statistics).
//
// Every experiment takes an io.Writer for its human-readable table and
// returns a typed result the benchmarks and tests assert on. All runs are
// deterministic given Params.Seed.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"swrec/internal/core"
	"swrec/internal/datagen"
)

// Params control experiment scale.
type Params struct {
	// Seed drives all pseudo-randomness.
	Seed int64
	// Scale selects the dataset size: "small" (fast; CI/tests), "medium",
	// or "paper" (the §4.1 corpus dimensions: 9,100 agents, 9,953 books,
	// >20k topics).
	Scale string
}

// Config resolves the scale name to a generator configuration.
func (p Params) Config() datagen.Config {
	var cfg datagen.Config
	switch p.Scale {
	case "paper":
		cfg = datagen.PaperScale()
	case "medium":
		cfg = datagen.PaperScale()
		cfg.Agents = 2000
		cfg.Products = 2000
		cfg.Taxonomy = datagen.TaxonomyConfig{Depth: 6, Branching: 4, Root: "Books"}
	default:
		cfg = datagen.SmallScale()
	}
	if p.Seed != 0 {
		cfg.Seed = p.Seed
	}
	return cfg
}

// wholeRange returns opt with neighborhood bounds that never bind on a
// community of n agents: the expansion range and M cover everyone, and
// the trust floor sits below any rank a metric produces. The arms that
// measure an unfiltered pipeline (E6's full scan, E7's whole-range and
// no-trust rows, E10, E12's reference row) state it explicitly — a zero
// bound means the serving defaults.
func wholeRange(opt core.Options, n int) core.Options {
	opt.Appleseed.MaxNodes = n
	opt.MaxNeighbors = n
	opt.TrustThreshold = 1e-300
	return opt
}

// elapsedMs runs f and returns its wall-clock duration in milliseconds —
// the latency columns of E6 and E12.
func elapsedMs(f func() error) (float64, error) {
	start := time.Now() //nolint:detrand -- wall-clock latency IS the §4 measurement; it annotates the report and never feeds back into seeded state
	err := f()
	return float64(time.Since(start).Microseconds()) / 1000, err //nolint:detrand -- wall-clock latency IS the §4 measurement
}

// table wraps a tabwriter for aligned experiment output.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer, header ...interface{}) *table {
	t := &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
	t.row(header...)
	return t
}

func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// section prints an experiment banner.
func section(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", id, title)
}

// f3 formats a float with 3 decimals.
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// pct formats a fraction as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
