package experiments

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"swrec/internal/loadgen"
)

func small() Params { return Params{Seed: 1, Scale: "small"} }

func TestE1MatchesPaper(t *testing.T) {
	var sb strings.Builder
	res, err := E1(&sb, small())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's printed values carry rounding error ≤ 0.005.
	if res.MaxError > 0.005 {
		t.Fatalf("MaxError = %v, want ≤ 0.005", res.MaxError)
	}
	// The descriptor share (50) is conserved along the path.
	if res.PathTotal < 49.999 || res.PathTotal > 50.001 {
		t.Fatalf("PathTotal = %v, want 50", res.PathTotal)
	}
	if !strings.Contains(sb.String(), "Algebra") {
		t.Fatal("table output missing")
	}
}

func TestE2GapPositiveAndGrowing(t *testing.T) {
	res, err := E2(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.GapAtHighFidelity <= 0 {
		t.Fatalf("high-fidelity gap = %v, want positive", res.GapAtHighFidelity)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Gap <= first.Gap {
		t.Fatalf("gap must grow with fidelity: %v -> %v", first.Gap, last.Gap)
	}
}

func TestE3Converges(t *testing.T) {
	res, err := E3(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("some Appleseed run hit the iteration cap")
	}
	for _, r := range res.Rows {
		if r.RankMass > 200+1e-6 {
			t.Fatalf("rank mass %v exceeds injection 200", r.RankMass)
		}
		if r.Neighbors == 0 {
			t.Fatalf("empty neighborhood at d=%v Tc=%v", r.Spreading, r.Threshold)
		}
	}
	// Tighter threshold ⇒ at least as many iterations (per spreading
	// factor, rows are ordered by decreasing Tc).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Spreading == res.Rows[i-1].Spreading &&
			res.Rows[i].Iterations < res.Rows[i-1].Iterations {
			t.Fatalf("iterations decreased with tighter threshold: %+v -> %+v",
				res.Rows[i-1], res.Rows[i])
		}
	}
}

func TestE4TrustShields(t *testing.T) {
	res, err := E4(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	if !res.PureCFEverExposed {
		t.Fatal("pure CF never fell for the attack — attack model broken")
	}
	if res.HybridEverExposed {
		t.Fatal("trust-filtered hybrid recommended the pushed product")
	}
	for _, r := range res.Rows {
		if r.SybilsInHybrid != 0 {
			t.Fatalf("%d sybils in hybrid neighborhood at k=%d", r.SybilsInHybrid, r.Sybils)
		}
	}
}

func TestE5TaxonomyDominatesOverlap(t *testing.T) {
	res, err := E5(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.TaxonomyFrac < r.ProductFrac {
			t.Fatalf("taxonomy overlap %v below product overlap %v at %d ratings",
				r.TaxonomyFrac, r.ProductFrac, r.MeanRatings)
		}
	}
	// At short histories the gap must be substantial.
	short := res.Rows[0]
	if short.TaxonomyFrac-short.ProductFrac < 0.2 {
		t.Fatalf("short-history gap too small: taxonomy %v vs product %v",
			short.TaxonomyFrac, short.ProductFrac)
	}
}

func TestE6TrustPrefilterBounded(t *testing.T) {
	res, err := E6(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// Full-scan candidate count grows with community size.
	if last.FullCandidates <= first.FullCandidates {
		t.Fatalf("full-scan candidates did not grow: %d -> %d",
			first.FullCandidates, last.FullCandidates)
	}
	// The trust-prefiltered candidate set stays bounded by MaxNodes.
	for _, r := range res.Rows {
		if r.TrustCandidates > 150 {
			t.Fatalf("trust candidates %d exceed the 150 bound", r.TrustCandidates)
		}
	}
}

func TestE7BeatsRandom(t *testing.T) {
	res, err := E7(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Strategies {
		if s.Strategy == "product-vector CF" {
			continue // classic CF may legitimately struggle at this scale
		}
		if s.HitRate <= res.RandomBaseline {
			t.Fatalf("%s hit rate %v does not beat random %v",
				s.Strategy, s.HitRate, res.RandomBaseline)
		}
	}
	if len(res.AlphaSweep) != 5 {
		t.Fatalf("alpha sweep rows = %d", len(res.AlphaSweep))
	}
}

func TestE8DeepTaxonomyDiscriminates(t *testing.T) {
	res, err := E8(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	var deepEq3, broadEq3 *E8Row
	for i := range res.Rows {
		r := &res.Rows[i]
		if r.Mode != "eq3" {
			continue
		}
		if strings.HasPrefix(r.Shape, "deep") {
			deepEq3 = r
		} else {
			broadEq3 = r
		}
	}
	if deepEq3 == nil || broadEq3 == nil {
		t.Fatalf("missing rows: %+v", res.Rows)
	}
	if deepEq3.Gap <= 0 || broadEq3.Gap <= 0 {
		t.Fatalf("cluster discrimination gaps must be positive: %+v, %+v", deepEq3, broadEq3)
	}
	if deepEq3.Gap <= broadEq3.Gap {
		t.Fatalf("deep taxonomy gap %v must exceed broad gap %v", deepEq3.Gap, broadEq3.Gap)
	}
	// Eq. 3 ablation: uniform propagation inflates all similarities, so
	// its intra/inter contrast collapses relative to Eq. 3.
	for _, shape := range []string{"deep", "broad"} {
		var eq3, uniform *E8Row
		for i := range res.Rows {
			r := &res.Rows[i]
			if !strings.HasPrefix(r.Shape, shape) {
				continue
			}
			switch r.Mode {
			case "eq3":
				eq3 = r
			case "uniform":
				uniform = r
			}
		}
		if eq3 == nil || uniform == nil {
			t.Fatalf("%s rows incomplete", shape)
		}
		if eq3.Contrast <= uniform.Contrast {
			t.Fatalf("%s: Eq3 contrast %v must exceed uniform contrast %v",
				shape, eq3.Contrast, uniform.Contrast)
		}
	}
}

func TestE9PipelineMaterializes(t *testing.T) {
	res, err := E9(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachableMatch {
		t.Fatal("crawl did not fully materialize the reachable set")
	}
	if res.CrawledStats.Agents == 0 || res.CrawledStats.Ratings == 0 {
		t.Fatalf("crawled community degenerate: %+v", res.CrawledStats)
	}
	if res.CrawlStats.Failed != 0 {
		t.Fatalf("crawl failures on a fully published web: %d", res.CrawlStats.Failed)
	}
	if res.Recommendations == 0 {
		t.Fatal("no recommendations from crawled data")
	}
}

func TestE10StereotypesRecoverClusters(t *testing.T) {
	res, err := E10(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	var atTrueK float64
	for _, e := range res.PuritySweep {
		if e.K == 6 { // SmallScale has 6 clusters
			atTrueK = e.Purity
		}
	}
	if atTrueK < 2*res.ChanceLevel {
		t.Fatalf("purity at true K = %v, chance %v", atTrueK, res.ChanceLevel)
	}
	if res.StereoCand >= res.FullCand/2 {
		t.Fatalf("stereotype restriction barely cuts candidates: %d vs %d",
			res.StereoCand, res.FullCand)
	}
	if res.StereoHitRate < res.FullHitRate/2 {
		t.Fatalf("stereotype restriction lost too much accuracy: %v vs %v",
			res.StereoHitRate, res.FullHitRate)
	}
}

func TestE11DiversificationTradeoff(t *testing.T) {
	res, err := E11(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Trials == 0 {
		t.Fatalf("rows = %d, trials = %d", len(res.Rows), res.Trials)
	}
	first, moderate, last := res.Rows[0], res.Rows[1], res.Rows[len(res.Rows)-1]
	// ILS falls monotonically with θ.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].MeanILS > res.Rows[i-1].MeanILS {
			t.Fatalf("ILS rose with theta: %+v", res.Rows)
		}
	}
	// Moderate diversification widens coverage (extreme θ may re-focus on
	// outlier items, as WWW'05 also observed — hence its Θ ≈ 0.4 cap).
	if moderate.Coverage <= first.Coverage {
		t.Fatalf("moderate coverage did not widen: %v -> %v", first.Coverage, moderate.Coverage)
	}
	// Accuracy should not collapse even at extreme θ.
	if last.HitRate < first.HitRate/2 {
		t.Fatalf("accuracy collapsed: %v -> %v", first.HitRate, last.HitRate)
	}
}

// TestE12DefaultsMeetTheirGates holds the serving defaults to what the
// sweep chose them for: the default point is on the grid, admits no E4
// sybil, confines the load harness's Sybil ring within the short
// preset's bounds where the whole-range row does not, and keeps the
// whole-range row's hit rate to within the trials' noise.
func TestE12DefaultsMeetTheirGates(t *testing.T) {
	res, err := E12(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	var whole, def *E12Row
	for i := range res.Rows {
		r := &res.Rows[i]
		switch {
		case r.Whole:
			whole = r
		case r.Default && def != nil:
			t.Fatal("two default rows")
		case r.Default:
			def = r
		}
		if len(r.ColdMs) != len(res.Sizes) || len(r.PR) != 2 {
			t.Fatalf("row %+v is incomplete", *r)
		}
	}
	if whole == nil || def == nil {
		t.Fatalf("missing reference or default row: %+v", res.Rows)
	}
	bound := loadgen.Short().Attacks[0]
	if def.PushedRate > bound.MaxPushedRate || def.RankPerturbation > bound.MaxRankPerturbation {
		t.Fatalf("defaults: pushed rate %.3f (bound %.3f), rank perturbation %d (bound %d)",
			def.PushedRate, bound.MaxPushedRate, def.RankPerturbation, bound.MaxRankPerturbation)
	}
	if whole.PushedRate <= bound.MaxPushedRate {
		t.Fatalf("whole range already confines the ring (%.3f): the column measures nothing", whole.PushedRate)
	}
	if def.Sybils != 0 || def.Exposed != 0 {
		t.Fatalf("defaults admit %d sybils, %d exposures", def.Sybils, def.Exposed)
	}
	// 60 trials: one hit is 1.7 points.
	if def.HitRate < whole.HitRate-0.05 {
		t.Fatalf("defaults hit rate %v, whole range %v", def.HitRate, whole.HitRate)
	}
}

func TestParamsConfigScales(t *testing.T) {
	small := Params{Scale: "small"}.Config()
	medium := Params{Scale: "medium"}.Config()
	paper := Params{Scale: "paper"}.Config()
	if !(small.Agents < medium.Agents && medium.Agents < paper.Agents) {
		t.Fatalf("scales not ordered: %d %d %d", small.Agents, medium.Agents, paper.Agents)
	}
	if paper.Agents != 9100 || paper.Products != 9953 {
		t.Fatalf("paper scale = %d/%d, want 9100/9953", paper.Agents, paper.Products)
	}
	seeded := Params{Scale: "small", Seed: 42}.Config()
	if seeded.Seed != 42 {
		t.Fatal("seed not applied")
	}
}

// recordClocks matches the wall-clock figures printed outside tables.
var recordClocks = regexp.MustCompile(`done in [^\]]*\]|completed in .*|[0-9]+ docs/s`)

// maskRecord masks the wall-clock figures of a recorded report the way
// maskTimings prints them in masked: the figures outside tables by
// pattern, then every byte masked prints as '~' in a table cell — which
// sits at the same offset of the same line in both, because a timing
// cell is as wide as its column's header.
func maskRecord(record, masked string) string {
	record = recordClocks.ReplaceAllStringFunc(record, func(s string) string {
		switch {
		case strings.HasPrefix(s, "done in"):
			return "done in ~]"
		case strings.HasPrefix(s, "completed in"):
			return "completed in ~"
		default:
			return "~ docs/s"
		}
	})
	lines, want := strings.Split(record, "\n"), strings.Split(masked, "\n")
	for i := range min(len(lines), len(want)) {
		if len(lines[i]) != len(want[i]) {
			continue
		}
		b := []byte(lines[i])
		for k := range b {
			if want[i][k] == '~' {
				b[k] = '~'
			}
		}
		lines[i] = string(b)
	}
	return strings.Join(lines, "\n")
}

// TestSmallSuiteMatchesRecord runs the small suite as `make experiments`
// does and compares its report byte for byte with the committed
// experiments_small_output.txt, every wall-clock figure masked on both
// sides. TestE1–TestE12 assert each claim's shape; this pins the bits of
// every number the suite prints. A change that moves a number on purpose
// rewrites the record with `make experiments` and says why.
func TestSmallSuiteMatchesRecord(t *testing.T) {
	requireRecord(t, small(), "experiments_small_output.txt", "make experiments")
}

// requireRecord runs the suite at p and compares its report with the
// record file at the repository root, wall-clock figures masked; rewrite
// is the target that rewrites the record.
func requireRecord(t *testing.T, p Params, file, rewrite string) {
	t.Helper()
	maskTimings = true
	defer func() { maskTimings = false }()
	var got strings.Builder
	if err := Suite(&got, p, nil); err != nil {
		t.Fatal(err)
	}
	record, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	want := maskRecord(string(record), got.String())
	if got.String() == want {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d of the report differs from %s (run `%s` if the change is intended):\ngot:    %q\nrecord: %q", i+1, file, rewrite, g, w)
		}
	}
}
