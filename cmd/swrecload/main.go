// Command swrecload is the production load harness: it runs a
// deterministic traffic scenario — Zipf-skewed reads, write churn
// through the /v1 API, flash crowds, injected adversarial communities —
// against an in-process swrecd (default) or a live server, checks the
// scenario's SLOs and attack-confinement bounds, and writes the
// BENCH_load.json artifact that `benchjson -diff` gates in CI.
//
// Usage:
//
//	swrecload [-preset short|full | -scenario FILE] [-out BENCH_load.json]
//	          [-addr http://HOST:PORT] [-wal DIR]
//	          [-seed N] [-agents N] [-events N] [-concurrency N]
//	          [-slo strict|report] [-v]
//
// The scenario fully determines the traffic: the same scenario and seed
// produce a byte-identical event plan (the report records its
// fingerprint), so two artifacts are comparable exactly when their
// fingerprints match. Latency is measured per endpoint and per strategy
// rung as HDR-style histograms (p50/p99/p999).
//
// With -addr the traffic is sent to a live server, which must be
// serving the same seeded community (e.g. swrecd -scale small -seed N);
// attack confinement is still measured against local twin builds of the
// clean and attacked community, since a live server cannot be asked to
// un-inject an attack.
//
// Exit status: 0 on full compliance, 1 when any SLO or confinement
// bound is violated, 2 on operational errors. With -slo=report,
// latency/error SLO violations are printed and recorded in the artifact
// but do not fail the exit status — confinement bounds still do.
// Latency budgets describe a reference box, so `make load` uses report
// mode (a saturated 1-core machine honestly misses them); attack
// confinement is hardware-independent and always enforced.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"swrec/internal/ingest"
	"swrec/internal/loadgen"
)

func main() {
	preset := flag.String("preset", "short", "built-in scenario: short | full")
	scenarioFile := flag.String("scenario", "", "scenario JSON file (overrides -preset)")
	out := flag.String("out", "BENCH_load.json", "report artifact path")
	addr := flag.String("addr", "", "live server base URL (empty = in-process)")
	walDir := flag.String("wal", "", "WAL directory for the in-process write path (empty = temp, removed afterwards)")
	seed := flag.Int64("seed", 0, "override scenario seed (0 = keep)")
	agents := flag.Int("agents", 0, "override community agent count (0 = keep)")
	events := flag.Int("events", 0, "override workload event count (0 = keep)")
	concurrency := flag.Int("concurrency", 0, "override worker count (0 = keep)")
	sloMode := flag.String("slo", "strict", "latency/error SLO exit policy: strict (violations fail) | report (print only; confinement still fails)")
	verbose := flag.Bool("v", false, "print the per-endpoint table")
	flag.Parse()

	if *sloMode != "strict" && *sloMode != "report" {
		fmt.Fprintf(os.Stderr, "swrecload: -slo %q (want strict|report)\n", *sloMode)
		os.Exit(2)
	}
	if err := run(*preset, *scenarioFile, *out, *addr, *walDir, *seed, *agents, *events, *concurrency, *sloMode == "strict", *verbose); err != nil {
		if err == errViolations {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "swrecload:", err)
		os.Exit(2)
	}
}

var errViolations = fmt.Errorf("SLO or confinement violations")

func run(preset, scenarioFile, out, addr, walDir string, seed int64, agents, events, concurrency int, strictSLO, verbose bool) error {
	var sc *loadgen.Scenario
	var err error
	switch {
	case scenarioFile != "":
		sc, err = loadgen.Load(scenarioFile)
		if err != nil {
			return err
		}
	case preset == "short":
		sc = loadgen.Short()
	case preset == "full":
		sc = loadgen.Full()
	default:
		return fmt.Errorf("unknown preset %q (want short|full)", preset)
	}
	if seed != 0 {
		sc.Seed = seed
	}
	if agents != 0 {
		sc.Community.Agents = agents
	}
	if events != 0 {
		sc.Workload.Events = events
	}
	if concurrency != 0 {
		sc.Workload.Concurrency = concurrency
	}
	if err := sc.Validate(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if walDir == "" {
		tmp, err := os.MkdirTemp("", "swrecload-wal-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		walDir = tmp
	}

	fmt.Fprintf(os.Stderr, "swrecload: scenario %q seed %d: generating %d agents, %d products\n",
		sc.Name, sc.Seed, sc.DatagenConfig().Agents, sc.DatagenConfig().Products)
	p, err := loadgen.BuildInProc(ctx, sc, walDir, ingest.Config{})
	if err != nil {
		return err
	}
	defer p.Close()

	// Confinement is measured before the load phase so the numbers
	// compare attacked-vs-clean, not attacked-vs-churned.
	attacks, err := p.MeasureAttacks(sc)
	if err != nil {
		return err
	}

	plan := loadgen.Plan(sc)
	fmt.Fprintf(os.Stderr, "swrecload: plan %s: %d events, %s pacing, %d workers\n",
		loadgen.Fingerprint(plan), len(plan), sc.Workload.Pacing, sc.Workload.Concurrency)

	var target loadgen.Target = loadgen.HandlerTarget{Handler: p.Handler}
	if addr != "" {
		target = loadgen.HTTPTarget{Base: addr}
		fmt.Fprintf(os.Stderr, "swrecload: driving live server %s (confinement measured on local twins)\n", addr)
	}
	runner := &loadgen.Runner{Scenario: sc, Plan: plan, Resolver: p.Resolver, Target: target}
	res, err := runner.Run(ctx)
	if err != nil {
		return err
	}

	rep := loadgen.BuildReport(sc, plan, res, attacks)
	if err := rep.WriteFile(out); err != nil {
		return err
	}
	printSummary(rep, verbose)

	bad := strictSLO && len(rep.Violations) > 0
	if !strictSLO && len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "swrecload: %d SLO violations reported, not enforced (-slo=report)\n", len(rep.Violations))
	}
	for _, ar := range attacks {
		bad = bad || len(ar.Violations) > 0
	}
	if bad {
		return errViolations
	}
	fmt.Fprintf(os.Stderr, "swrecload: PASS — report written to %s\n", out)
	return nil
}

func printSummary(rep *loadgen.Report, verbose bool) {
	fmt.Printf("scenario %s (seed %d, plan %s): %d/%d events in %.2fs\n",
		rep.Scenario, rep.Seed, rep.PlanFingerprint, rep.Completed, rep.Events, rep.WallSeconds)
	if verbose {
		names := make([]string, 0, len(rep.Endpoints))
		for ep := range rep.Endpoints {
			names = append(names, ep)
		}
		sort.Strings(names)
		fmt.Printf("%-18s %8s %9s %9s %9s %7s\n", "endpoint", "reqs", "p50ms", "p99ms", "p999ms", "err%")
		for _, ep := range names {
			e := rep.Endpoints[ep]
			fmt.Printf("%-18s %8d %9.2f %9.2f %9.2f %7.2f\n",
				ep, e.Requests, e.P50MS, e.P99MS, e.P999MS, 100*e.ErrorRate)
		}
		for _, rung := range sortedStrings(rep.Rungs) {
			r := rep.Rungs[rung]
			fmt.Printf("%-18s %8d %9.2f %9.2f %9.2f\n", "rung:"+rung, r.Requests, r.P50MS, r.P99MS, r.P999MS)
		}
	}
	if rep.Overloaded > 0 {
		fmt.Printf("overload: %d×503, Retry-After %d..%ds\n", rep.Overloaded, rep.RetryAfterMin, rep.RetryAfterMax)
	}
	for _, ar := range rep.Attacks {
		status := "confined"
		if len(ar.Violations) > 0 {
			status = "ESCAPED"
		}
		fmt.Printf("attack %-16s %s: energy %.4f; default-blend rank perturbation %d, pushed rate %.3f; trust-gated %d / %.3f (%d samples)\n",
			ar.Kind, status, ar.EnergyShare,
			ar.MaxRankPerturbation, ar.PushedRate,
			ar.TrustGated.MaxRankPerturbation, ar.TrustGated.PushedRate, ar.Samples)
		for _, v := range ar.Violations {
			fmt.Println("  violation:", v)
		}
	}
	for _, v := range rep.Violations {
		fmt.Println("SLO violation:", v.String())
	}
}

func sortedStrings[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
