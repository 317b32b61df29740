package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const loadBaseline = `{
  "kind": "load",
  "scenario": "short",
  "planFingerprint": "aaaa",
  "metrics": {
    "recommendations.p99_ms": 10.0,
    "recommendations.error_rate": 0.0,
    "attack.sybil-ring.energy_share": 0.01,
    "slo.violations": 0
  }
}`

func loadRep(metrics map[string]float64) loadReport {
	return loadReport{Kind: "load", Scenario: "short", PlanFingerprint: "aaaa", Metrics: metrics}
}

func TestDiffLoadPassesWithinBounds(t *testing.T) {
	base := writeBaseline(t, loadBaseline)
	cur := loadRep(map[string]float64{
		"recommendations.p99_ms":         12.0, // 1.2x < 2x threshold
		"recommendations.error_rate":     0.01, // +0.01 < 0.05 abs
		"attack.sybil-ring.energy_share": 0.02,
		"slo.violations":                 0,
	})
	if !diffLoad(cur, base, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("within-bounds run failed the gate")
	}
}

func TestDiffLoadLatencyRatioGate(t *testing.T) {
	base := writeBaseline(t, loadBaseline)
	cur := loadRep(map[string]float64{
		"recommendations.p99_ms":         25.0, // 2.5x > 2x
		"recommendations.error_rate":     0.0,
		"attack.sybil-ring.energy_share": 0.01,
		"slo.violations":                 0,
	})
	if diffLoad(cur, base, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("2.5x latency growth passed a 2x gate")
	}
}

func TestDiffLoadAbsoluteGateIgnoresRatio(t *testing.T) {
	base := writeBaseline(t, loadBaseline)
	// 0.01 -> 0.03 energy is a 3x ratio but only +0.02 absolute: the
	// share metrics gate on absolute movement, not ratio.
	cur := loadRep(map[string]float64{
		"recommendations.p99_ms":         10.0,
		"recommendations.error_rate":     0.0,
		"attack.sybil-ring.energy_share": 0.03,
		"slo.violations":                 0,
	})
	if !diffLoad(cur, base, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("+0.02 energy share failed a 0.05 absolute gate")
	}
	cur.Metrics["slo.violations"] = 1 // +1 > 0.05
	if diffLoad(cur, base, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("a new SLO violation passed the gate")
	}
}

func TestDiffLoadLatencyFloorAbsorbsJitter(t *testing.T) {
	base := writeBaseline(t, loadBaseline)
	// Sub-millisecond tails routinely jitter 4x between identical runs;
	// the -ms floor keeps that from failing while a regression that is
	// both 2x+ and 2ms+ still does.
	cur := loadRep(map[string]float64{
		"recommendations.p99_ms":         10.0,
		"recommendations.error_rate":     0.0,
		"attack.sybil-ring.energy_share": 0.01,
		"slo.violations":                 0,
		"topic.p99_ms":                   1.3, // 4.1x of 0.319 but < 2ms growth
	})
	baseWithTopic := writeBaseline(t, strings.Replace(loadBaseline,
		`"slo.violations": 0`, `"slo.violations": 0, "topic.p99_ms": 0.319`, 1))
	if !diffLoad(cur, base, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("new topic key failed the gate")
	}
	if !diffLoad(cur, baseWithTopic, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("sub-ms 4x jitter under the 2ms floor failed the gate")
	}
	cur.Metrics["topic.p99_ms"] = 4.0 // 12.5x and +3.7ms: both bars cleared
	if diffLoad(cur, baseWithTopic, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("12x / +3.7ms latency regression passed the gate")
	}
}

func TestDiffLoadP999NeverGated(t *testing.T) {
	base := writeBaseline(t, strings.Replace(loadBaseline,
		`"slo.violations": 0`, `"slo.violations": 0, "write_rating.p999_ms": 48.0`, 1))
	cur := loadRep(map[string]float64{
		"recommendations.p99_ms":         10.0,
		"recommendations.error_rate":     0.0,
		"attack.sybil-ring.energy_share": 0.01,
		"slo.violations":                 0,
		"write_rating.p999_ms":           480.0, // 10x tail: max of ~250 samples
	})
	var out strings.Builder
	if !diffLoad(cur, base, 1.0, 0.05, 2.0, &out) {
		t.Errorf("p999 tail failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "not gated") {
		t.Errorf("p999 not reported as ungated tail:\n%s", out.String())
	}
}

func TestDiffLoadRungGoneInformational(t *testing.T) {
	base := writeBaseline(t, strings.Replace(loadBaseline,
		`"slo.violations": 0`, `"slo.violations": 0, "rung.degraded-cache.p99_ms": 0.5`, 1))
	// Which rungs fire depends on run timing; a baseline rung absent
	// from this run must not fail the gate the way endpoint or attack
	// coverage loss does.
	cur := loadRep(map[string]float64{
		"recommendations.p99_ms":         10.0,
		"recommendations.error_rate":     0.0,
		"attack.sybil-ring.energy_share": 0.01,
		"slo.violations":                 0,
	})
	if !diffLoad(cur, base, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("a rung unexercised this run failed the gate")
	}
}

func TestDiffLoadMissingMetricFails(t *testing.T) {
	base := writeBaseline(t, loadBaseline)
	cur := loadRep(map[string]float64{
		"recommendations.p99_ms":     10.0,
		"recommendations.error_rate": 0.0,
		"slo.violations":             0,
		// attack.sybil-ring.energy_share vanished: coverage rot.
	})
	var out strings.Builder
	if diffLoad(cur, base, 1.0, 0.05, 2.0, &out) {
		t.Error("run missing a baseline metric passed the gate")
	}
	if !strings.Contains(out.String(), "GONE") {
		t.Errorf("missing metric not reported as GONE:\n%s", out.String())
	}
}

func TestDiffLoadNewMetricInformational(t *testing.T) {
	base := writeBaseline(t, loadBaseline)
	cur := loadRep(map[string]float64{
		"recommendations.p99_ms":         10.0,
		"recommendations.error_rate":     0.0,
		"attack.sybil-ring.energy_share": 0.01,
		"slo.violations":                 0,
		"neighbors.p99_ms":               500.0, // new key, however ugly
	})
	if !diffLoad(cur, base, 1.0, 0.05, 2.0, io.Discard) {
		t.Error("a metric new to this run failed the gate")
	}
}

func TestParseLoadReportDetection(t *testing.T) {
	if _, ok := parseLoadReport([]byte(loadBaseline)); !ok {
		t.Error("load report not detected")
	}
	if _, ok := parseLoadReport([]byte(`{"benchmarks": []}`)); ok {
		t.Error("bench report misdetected as load report")
	}
	if _, ok := parseLoadReport([]byte("BenchmarkFoo 10 5 ns/op")); ok {
		t.Error("bench text misdetected as load report")
	}
}

const benchBaseline = `{
  "benchmarks": [
    {"package": "p", "name": "BenchmarkHot", "iterations": 100, "ns_per_op": 1000, "allocs_per_op": 8},
    {"package": "p", "name": "BenchmarkZeroAlloc", "iterations": 100, "ns_per_op": 500}
  ]
}`

func TestDiffBenchUnmeasuredAllocsNotGated(t *testing.T) {
	base := writeBaseline(t, benchBaseline)
	// A run without -benchmem parses to AllocsMeasured=false. The old
	// code scored 0 allocs as a 0.00x "improvement" and silently waved
	// the gate through; now it must pass explicitly as not-gated while
	// ns/op still gates.
	rep := report{Benchmarks: []result{
		{Package: "p", Name: "BenchmarkHot", Iterations: 100, NsPerOp: 1050},
		{Package: "p", Name: "BenchmarkZeroAlloc", Iterations: 100, NsPerOp: 500},
	}}
	var out strings.Builder
	if !diffAgainst(rep, base, 0.20, 0, nil, &out) {
		t.Errorf("alloc-less run failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "not measured") {
		t.Errorf("unmeasured allocs not called out:\n%s", out.String())
	}
	rep.Benchmarks[0].NsPerOp = 5000 // ns regression still caught
	if diffAgainst(rep, base, 0.20, 0, nil, io.Discard) {
		t.Error("5x ns/op regression passed because allocs were unmeasured")
	}
}

func TestDiffBenchZeroAllocBaselineBroken(t *testing.T) {
	base := writeBaseline(t, benchBaseline)
	// One allocation against a zero-alloc baseline: ratio(1, 0) == 1
	// slipped under every threshold in the old code.
	rep := report{Benchmarks: []result{
		{Package: "p", Name: "BenchmarkHot", Iterations: 100, NsPerOp: 1000, AllocsOp: 8, AllocsMeasured: true},
		{Package: "p", Name: "BenchmarkZeroAlloc", Iterations: 100, NsPerOp: 500, AllocsOp: 1, AllocsMeasured: true},
	}}
	var out strings.Builder
	if diffAgainst(rep, base, 0.20, 0, nil, &out) {
		t.Errorf("broken zero-alloc baseline passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "zero-alloc baseline broken") {
		t.Errorf("zero-alloc break not called out:\n%s", out.String())
	}
}

func TestDiffBenchBytesGatedOnlyWhenAsked(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks": [
    {"package": "p", "name": "BenchmarkRestart", "iterations": 20, "ns_per_op": 1000, "bytes_per_op": 1000, "allocs_per_op": 8}
  ]}`)
	// 1.3x the bytes at unchanged time and allocations: the shape of a
	// restart that went back to deriving what it never reads.
	rep := report{Benchmarks: []result{
		{Package: "p", Name: "BenchmarkRestart", Iterations: 20, NsPerOp: 1000, BytesPerOp: 1300, AllocsOp: 8, AllocsMeasured: true},
	}}
	if !diffAgainst(rep, base, 0.20, 0, nil, io.Discard) {
		t.Error("B/op gated without -bytes")
	}
	if diffAgainst(rep, base, 1.0, 0.20, nil, io.Discard) {
		t.Error("1.3x B/op passed -bytes 0.20")
	}
	rep.Benchmarks[0].BytesPerOp = 1100
	if !diffAgainst(rep, base, 1.0, 0.20, nil, io.Discard) {
		t.Error("1.1x B/op failed -bytes 0.20")
	}
}

func TestParseBenchAllocsMeasured(t *testing.T) {
	r, ok := parseBench("BenchmarkFoo-8  200  2495 ns/op  184 B/op  5 allocs/op", "p")
	if !ok || !r.AllocsMeasured || r.AllocsOp != 5 {
		t.Fatalf("with -benchmem: %+v ok=%v", r, ok)
	}
	r, ok = parseBench("BenchmarkFoo-8  200  2495 ns/op", "p")
	if !ok || r.AllocsMeasured {
		t.Fatalf("without -benchmem: %+v ok=%v", r, ok)
	}
	// b.ReportMetric units ride along between ns/op and the memstats.
	r, ok = parseBench("BenchmarkPublish/agents=2000-2  20  1697633 ns/op  63.80 clone_us  1350 swap_us  1169423 B/op  3993 allocs/op", "p")
	if !ok || r.NsPerOp != 1697633 || r.AllocsOp != 3993 || r.Extra["clone_us"] != 63.8 || r.Extra["swap_us"] != 1350 {
		t.Fatalf("with custom metrics: %+v ok=%v", r, ok)
	}
}

// TestDiffBenchAgainstParentMedians: with the parent's runs as the
// reference, ns/op is the median of each side's runs against the other's,
// whatever the baseline recorded in another session; allocs/op still
// answers to the baseline, and a benchmark the parent lacks is not gated
// on time.
func TestDiffBenchAgainstParentMedians(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks": [
    {"package": "p", "name": "BenchmarkA", "iterations": 20, "ns_per_op": 1000, "bytes_per_op": 100, "allocs_per_op": 8},
    {"package": "p", "name": "BenchmarkB", "iterations": 20, "ns_per_op": 1000, "bytes_per_op": 100, "allocs_per_op": 8}
  ]}`)
	parent := filepath.Join(t.TempDir(), "parent.txt")
	if err := os.WriteFile(parent, []byte("pkg: p\n"+
		"BenchmarkA-2 20 2000 ns/op 100 B/op 8 allocs/op\n"+
		"BenchmarkA-2 20 2100 ns/op 100 B/op 8 allocs/op\n"+
		"BenchmarkA-2 20 1900 ns/op 100 B/op 8 allocs/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	nsRef, err := parentMedians(parent)
	if err != nil {
		t.Fatal(err)
	}
	here := func(a1, a2, a3 float64, allocs int64) report {
		var rep report
		for _, ns := range []float64{a1, a2, a3} {
			rep.Benchmarks = append(rep.Benchmarks,
				result{Package: "p", Name: "BenchmarkA", NsPerOp: ns, BytesPerOp: 100, AllocsOp: allocs, AllocsMeasured: true},
				result{Package: "p", Name: "BenchmarkB", NsPerOp: 9000, BytesPerOp: 100, AllocsOp: 8, AllocsMeasured: true})
		}
		return medians(rep)
	}
	if rep := here(2300, 2350, 2200, 8); len(rep.Benchmarks) != 2 || !diffAgainst(rep, base, 0.20, 0, nsRef, io.Discard) {
		t.Error("a 1.15x median against the parent's failed a 20% gate (or runs were not collapsed)")
	}
	if diffAgainst(here(2300, 2350, 2200, 8), base, 0.20, 0, nil, io.Discard) {
		t.Error("without the parent, 2.3x the baseline's ns/op passed")
	}
	if diffAgainst(here(2500, 2450, 2600, 8), base, 0.20, 0, nsRef, io.Discard) {
		t.Error("a 1.25x median against the parent's passed a 20% gate")
	}
	if diffAgainst(here(2000, 2000, 2000, 12), base, 0.20, 0, nsRef, io.Discard) {
		t.Error("1.5x the baseline's allocs/op passed with a parent reference")
	}
}
