// Package experiments regenerates every experiment table defined in
// DESIGN.md's experiment index (E1–E12; Suite runs them in that order).
// The paper itself — a short framework paper — prints no numbered result
// tables; each experiment here validates one of its quantitative claims
// (Example 1's numbers, the §3.2 correlation and manipulation arguments,
// the §2 overlap and scalability arguments, the §3.4 rank synthesization
// alternatives, the §6 taxonomy-shape question, and the §4.1
// infrastructure statistics) or measures one of the paper's open
// directions (E10's automated stereotypes and E11's diversification, both
// §6) or the neighborhood bounds the zero-value options mean (E12).
//
// Every experiment takes an io.Writer for its human-readable table and
// returns a typed result the benchmarks and tests assert on. All runs are
// deterministic given Params.Seed.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
	"unicode/utf8"

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

// maskTimings prints every wall-clock figure of the report — millis
// cells, clock strings — as a run of '~'. The record test sets it, so
// that everything else the suite prints can be compared byte for byte
// with the committed experiments_small_output.txt.
var maskTimings bool

// millis is a wall-clock latency table cell, in milliseconds. The table
// prints it right-aligned to the width of its column's header, so no
// timing ever moves another cell of the report.
type millis float64

// clock formats a wall-clock figure printed outside a table.
func clock(format string, v any) string {
	if maskTimings {
		return "~"
	}
	return fmt.Sprintf(format, v)
}

// table wraps a tabwriter for aligned experiment output.
type table struct {
	tw     *tabwriter.Writer
	widths []int // header cell widths, the width of every millis cell
}

func newTable(w io.Writer, header ...interface{}) *table {
	t := &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
	for _, h := range header {
		t.widths = append(t.widths, utf8.RuneCountInString(fmt.Sprint(h)))
	}
	t.row(header...)
	return t
}

func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		if ms, ok := c.(millis); ok {
			c = fmt.Sprintf("%*.2f", t.widths[i], float64(ms))
			if maskTimings {
				c = strings.Repeat("~", t.widths[i])
			}
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

// Experiment is one entry of the suite, its typed result erased.
type Experiment struct {
	ID  string
	Run func(io.Writer, Params) error
}

// wrap erases an experiment's typed result.
func wrap[T any](f func(io.Writer, Params) (T, error)) func(io.Writer, Params) error {
	return func(w io.Writer, p Params) error {
		_, err := f(w, p)
		return err
	}
}

// All lists the suite in the order it runs.
func All() []Experiment {
	return []Experiment{
		{"E1", wrap(E1)},
		{"E2", wrap(E2)},
		{"E3", wrap(E3)},
		{"E4", wrap(E4)},
		{"E5", wrap(E5)},
		{"E6", wrap(E6)},
		{"E7", wrap(E7)},
		{"E8", wrap(E8)},
		{"E9", wrap(E9)},
		{"E10", wrap(E10)},
		{"E11", wrap(E11)},
		{"E12", wrap(E12)},
	}
}

// Suite writes the report of the experiments selected (every one when
// selected is empty) at p: a banner, each experiment's tables followed by
// its wall time, and the total. It stops at the first failing experiment.
func Suite(w io.Writer, p Params, selected map[string]bool) error {
	fmt.Fprintf(w, "swrec experiment harness — scale=%s seed=%d\n", p.Scale, p.Seed)
	var total float64
	ran := 0
	for _, e := range All() {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		ms, err := elapsedMs(func() error { return e.Run(w, p) })
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
		fmt.Fprintf(w, "[%s done in %s]\n", e.ID, clock("%v", roundMs(ms)))
		total += ms
		ran++
	}
	fmt.Fprintf(w, "\n%d experiment(s) completed in %s\n", ran, clock("%v", roundMs(total)))
	return nil
}

// roundMs converts milliseconds to a duration rounded to the millisecond.
func roundMs(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Millisecond)
}
