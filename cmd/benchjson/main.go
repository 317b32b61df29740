// Command benchjson converts `go test -bench` text output into a stable
// JSON document so benchmark results can be archived and diffed across
// commits (see `make bench`, which writes BENCH_engine.json). It also
// diffs the load harness's BENCH_load.json artifacts (see `make load`).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -out BENCH_engine.json
//	go test -bench=. -benchmem ./... | benchjson -diff BENCH_engine.json
//	benchjson -in bin/BENCH_load.json -diff BENCH_load.json -threshold 2.0
//
// With -diff, the parsed results are compared against the archived
// baseline instead of written out: every benchmark present in both is
// reported with its ns/op and allocs/op ratios, and the process exits 1
// when any ratio exceeds 1+threshold (-threshold, default 0.20) — the
// regression gate behind `make bench-diff`. Benchmarks new to this run
// or missing from it are noted but never fail the gate, so partial runs
// (the short form in `make check`) stay usable. Two asymmetries guard
// the alloc comparison: a run without -benchmem never scores 0 allocs
// as an improvement over a measured baseline, and allocations appearing
// where the baseline had none always fail regardless of ratio. B/op is
// reported but gated only with -bytes, its own allowed growth: bytes are
// near-deterministic for a fixed -cpu, so a tight bound on them catches
// a regression whose time is lost in noise.
//
// With -in FILE the input is read from FILE instead of stdin. When the
// file is a load report (swrecload writes `"kind": "load"`), -diff
// switches to metric mode: every key in the report's flat metrics map
// is higher-is-worse. Latency (*_ms) keys are the noisy dimension and
// fail only when both the ratio exceeds 1+threshold and the absolute
// increase exceeds -ms — the floor keeps sub-millisecond scheduler
// jitter (routinely 4x on an idle tail) from flaking the gate while a
// genuine serving-path regression clears both bars. *.p999_ms keys are
// reported but never gated: in the short scenario they are the max of
// a few hundred samples. All other keys (error rates, energy shares,
// rank perturbations, violation counts) are exactly reproducible for a
// fixed plan fingerprint and gate on absolute increase beyond -abs.
// Unlike bench mode, a baseline metric missing from the run fails the
// gate — losing a metric silently is exactly the kind of coverage rot
// the artifact exists to catch — except rung.* keys, whose presence
// depends on which degradation rungs the timing of the run happened to
// exercise.
//
// The bench output is echoed to stdout unchanged, so piping through
// benchjson costs no visibility. Lines that are not benchmark results
// (PASS, ok, test logs) are ignored; goos/goarch/cpu/pkg context lines
// annotate the records that follow them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Package    string  `json:"package"`
	Name       string  `json:"name"`
	Procs      int     `json:"procs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	MBPerS     float64 `json:"mb_per_s,omitempty"`
	BytesPerOp int64   `json:"bytes_per_op,omitempty"`
	AllocsOp   int64   `json:"allocs_per_op,omitempty"`
	// Extra holds the benchmark's own b.ReportMetric values by unit
	// (BenchmarkPublish's clone_us and swap_us): recorded, not gated.
	Extra map[string]float64 `json:"extra,omitempty"`

	// AllocsMeasured distinguishes "0 allocs/op" from "run without
	// -benchmem" for the current run; baselines carry the distinction in
	// AllocsOp > 0.
	AllocsMeasured bool `json:"-"`
}

// report is the document benchjson emits.
type report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

// loadReport is the slice of swrecload's BENCH_load.json that the
// metric diff needs.
type loadReport struct {
	Kind            string             `json:"kind"`
	Scenario        string             `json:"scenario"`
	PlanFingerprint string             `json:"planFingerprint"`
	Metrics         map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("out", "", "write the JSON report here (default stdout only)")
	diff := flag.String("diff", "", "compare against this baseline JSON instead of writing; exit 1 on regression")
	threshold := flag.Float64("threshold", 0.20, "with -diff: allowed fractional growth for ns/op, allocs/op, and load *_ms metrics")
	bytesTol := flag.Float64("bytes", 0, "with -diff on bench output: allowed fractional growth for B/op (0: not gated)")
	absTol := flag.Float64("abs", 0.05, "with -diff on a load report: allowed absolute increase for non-latency metrics")
	msFloor := flag.Float64("ms", 2.0, "with -diff on a load report: *_ms keys only fail when they also grew by this many milliseconds")
	in := flag.String("in", "", "read input from FILE instead of stdin (a BENCH_load.json report switches -diff to metric mode)")
	flag.Parse()

	var input io.Reader = os.Stdin
	if *in != "" {
		data, err := os.ReadFile(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if lr, ok := parseLoadReport(data); ok {
			if *diff == "" {
				fmt.Fprintln(os.Stderr, "benchjson: -in is a load report; it only supports -diff BASELINE")
				os.Exit(1)
			}
			if !diffLoad(lr, *diff, *threshold, *absTol, *msFloor, os.Stdout) {
				os.Exit(1)
			}
			return
		}
		input = bytes.NewReader(data)
	}

	rep, err := parseBenchStream(input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}

	if *diff != "" {
		if !diffAgainst(rep, *diff, *threshold, *bytesTol, os.Stdout) {
			os.Exit(1)
		}
		return
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parseLoadReport detects and decodes a swrecload artifact.
func parseLoadReport(data []byte) (loadReport, bool) {
	var lr loadReport
	if err := json.Unmarshal(data, &lr); err != nil || lr.Kind != "load" {
		return loadReport{}, false
	}
	return lr, true
}

// parseBenchStream reads `go test -bench` text, echoing it unchanged.
func parseBenchStream(r io.Reader) (report, error) {
	rep := report{Benchmarks: []result{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass-through
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line, pkg); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	return rep, sc.Err()
}

// diffLoad gates a load report's metrics against a baseline artifact.
// Every metric is higher-is-worse. Latency (*_ms) fails only when the
// ratio exceeds 1+threshold AND the growth exceeds msFloor
// milliseconds, and *.p999_ms is never gated (see the package doc);
// everything else is deterministic for a fixed plan and gates on
// absolute increase beyond absTol. Metrics that vanished from the run
// fail, except timing-dependent rung.* keys; new metrics are
// informational.
func diffLoad(cur loadReport, baselinePath string, threshold, absTol, msFloor float64, w io.Writer) bool {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
		return false
	}
	base, isLoad := parseLoadReport(data)
	if !isLoad {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s is not a load report\n", baselinePath)
		return false
	}
	fmt.Fprintf(w, "\nbenchjson load diff vs %s (latency threshold %.2fx, absolute tolerance %.3g)\n",
		baselinePath, 1+threshold, absTol)
	if cur.PlanFingerprint != base.PlanFingerprint {
		fmt.Fprintf(w, "  note: plan fingerprint %s != baseline %s — scenarios differ, comparison is indicative only\n",
			cur.PlanFingerprint, base.PlanFingerprint)
	}
	ok, compared := true, 0
	for _, k := range sortedMetricKeys(cur.Metrics) {
		c := cur.Metrics[k]
		b, found := base.Metrics[k]
		if !found {
			fmt.Fprintf(w, "  NEW        %-44s %.4g (no baseline)\n", k, c)
			continue
		}
		compared++
		if strings.HasSuffix(k, ".p999_ms") {
			fmt.Fprintf(w, "  tail       %-44s %.3f -> %.3f ms (%.2fx, not gated)\n", k, b, c, ratio(c, b))
			continue
		}
		if strings.HasSuffix(k, "_ms") {
			r := ratio(c, b)
			verdict := "ok"
			if r > 1+threshold && c-b > msFloor {
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "  %-10s %-44s %.3f -> %.3f ms (%.2fx)\n", verdict, k, b, c, r)
			continue
		}
		verdict := "ok"
		if c-b > absTol {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "  %-10s %-44s %.4g -> %.4g (%+.4g)\n", verdict, k, b, c, c-b)
	}
	for _, k := range sortedMetricKeys(base.Metrics) {
		if _, found := cur.Metrics[k]; !found {
			if strings.HasPrefix(k, "rung.") {
				fmt.Fprintf(w, "  SKIP       %-44s (rung not exercised this run)\n", k)
				continue
			}
			fmt.Fprintf(w, "  GONE       %-44s baseline metric missing from this run\n", k)
			ok = false
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no metric overlapped the baseline")
		return false
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: load metrics regressed against %s\n", baselinePath)
	}
	return ok
}

func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffAgainst compares the run's results to the baseline file and
// reports per-benchmark ns/op, allocs/op and B/op ratios. Returns false
// when any benchmark present in both regressed beyond 1+threshold in
// ns/op or allocs/op, or — with bytesTol > 0 — beyond 1+bytesTol in B/op
// against a baseline that measured it. New and missing benchmarks are
// informational only: the gate must stay usable for partial runs.
func diffAgainst(rep report, baselinePath string, threshold, bytesTol float64, w io.Writer) bool {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
		return false
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
		return false
	}
	byKey := make(map[string]result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byKey[b.Package+"\x00"+b.Name] = b
	}

	fmt.Fprintf(w, "\nbenchjson diff vs %s (threshold %+.0f%%)\n", baselinePath, threshold*100)
	ok, compared := true, 0
	seen := make(map[string]bool, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		key := r.Package + "\x00" + r.Name
		seen[key] = true
		b, found := byKey[key]
		if !found {
			fmt.Fprintf(w, "  NEW   %-52s %12.0f ns/op %8d allocs/op (no baseline)\n", r.Name, r.NsPerOp, r.AllocsOp)
			continue
		}
		compared++
		nsRatio := ratio(r.NsPerOp, b.NsPerOp)
		verdict := "ok"
		if nsRatio > 1+threshold {
			verdict = "REGRESSION"
			ok = false
		}
		allocs := fmt.Sprintf("allocs/op %d -> %d (%.2fx)", b.AllocsOp, r.AllocsOp,
			ratio(float64(r.AllocsOp), float64(b.AllocsOp)))
		switch {
		case b.AllocsOp > 0 && !r.AllocsMeasured:
			// Without -benchmem the run reports no allocation data; 0
			// must not read as an improvement — or worse, silently pass
			// a gate the baseline meant to hold.
			allocs = fmt.Sprintf("allocs/op %d -> not measured (run without -benchmem; not gated)", b.AllocsOp)
		case b.AllocsOp == 0 && r.AllocsOp > 0:
			// A zero-alloc baseline is a property, not a ratio: any
			// allocation at all breaks it, no threshold applies.
			verdict = "REGRESSION"
			ok = false
			allocs = fmt.Sprintf("allocs/op 0 -> %d (zero-alloc baseline broken)", r.AllocsOp)
		default:
			if ratio(float64(r.AllocsOp), float64(b.AllocsOp)) > 1+threshold {
				verdict = "REGRESSION"
				ok = false
			}
		}
		bytesRatio := ratio(float64(r.BytesPerOp), float64(b.BytesPerOp))
		if bytesTol > 0 && b.BytesPerOp > 0 && r.AllocsMeasured && bytesRatio > 1+bytesTol {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "  %-5s %-52s ns/op %.0f -> %.0f (%.2fx)  %s  B/op %.2fx\n",
			verdict, r.Name, b.NsPerOp, r.NsPerOp, nsRatio, allocs, bytesRatio)
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Package+"\x00"+b.Name] {
			fmt.Fprintf(w, "  SKIP  %-52s (in baseline, not in this run)\n", b.Name)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark overlapped the baseline")
		return false
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: regression beyond %+.0f%% (B/op: %+.0f%%, 0 = ungated) against %s\n", threshold*100, bytesTol*100, baselinePath)
	}
	return ok
}

// ratio guards the division: a zero baseline compares as neutral when
// the new value is also zero; nonzero-over-zero cases are handled by
// the callers (the bench path treats them as broken zero-alloc
// baselines, the load path gates on absolute increase instead).
func ratio(cur, old float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 1
		}
		return cur // vs 0: treat the raw value as the factor
	}
	return cur / old
}

// parseBench parses one benchmark result line:
//
//	BenchmarkName/sub=1-8  200  2495 ns/op  0.40 MB/s  184 B/op  5 allocs/op
func parseBench(line, pkg string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return result{}, false
	}
	r := result{Package: pkg, Name: fields[0]}
	// A trailing -N on the name is the GOMAXPROCS suffix.
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = p
			r.Name = r.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r.Iterations = iters
	// The remainder is value/unit pairs.
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsOp = int64(v)
			r.AllocsMeasured = true
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[fields[i+1]] = v
		}
	}
	return r, seen
}
