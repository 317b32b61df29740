// Command experiments regenerates the experiment tables of DESIGN.md's
// index (E1–E12), each validating one quantitative claim of the paper.
//
// Usage:
//
//	experiments [-run E1,E4] [-scale small|medium|paper] [-seed N]
//
// With no -run flag every experiment runs in order. The paper scale uses
// the §4.1 corpus dimensions (9,100 agents, 9,953 books, >20k topics) and
// takes correspondingly longer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"swrec/internal/experiments"
)

// runner is one experiment entry point, erased to a common signature.
type runner struct {
	id    string
	title string
	run   func(io.Writer, experiments.Params) error
}

// wrap erases an experiment's typed result.
func wrap[T any](f func(io.Writer, experiments.Params) (T, error)) func(io.Writer, experiments.Params) error {
	return func(w io.Writer, p experiments.Params) error {
		_, err := f(w, p)
		return err
	}
}

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment IDs (e.g. E1,E4); empty = all")
	scale := flag.String("scale", "small", "dataset scale: small | medium | paper")
	seed := flag.Int64("seed", 1, "random seed (all experiments are deterministic given a seed)")
	flag.Parse()

	all := []runner{
		{"E1", "Example 1 topic score assignment", wrap(experiments.E1)},
		{"E2", "trust <-> similarity correlation", wrap(experiments.E2)},
		{"E3", "Appleseed convergence sweep", wrap(experiments.E3)},
		{"E4", "sybil manipulation resistance", wrap(experiments.E4)},
		{"E5", "profile overlap by representation", wrap(experiments.E5)},
		{"E6", "scalability of neighborhood prefiltering", wrap(experiments.E6)},
		{"E7", "rank synthesization quality (leave-one-out)", wrap(experiments.E7)},
		{"E8", "taxonomy shape impact", wrap(experiments.E8)},
		{"E9", "decentralized publish-crawl-recommend pipeline", wrap(experiments.E9)},
		{"E10", "automated stereotype generation (§6 extension)", wrap(experiments.E10)},
		{"E11", "topic diversification (taxonomy-program extension)", wrap(experiments.E11)},
		{"E12", "neighborhood bounds sweep: range x neighbors x trust floor", wrap(experiments.E12)},
	}

	selected := map[string]bool{}
	if *runFlag != "" {
		for _, id := range strings.Split(*runFlag, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		for id := range selected {
			found := false
			for _, r := range all {
				if r.id == id {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
				os.Exit(2)
			}
		}
	}

	p := experiments.Params{Seed: *seed, Scale: *scale}
	fmt.Printf("swrec experiment harness — scale=%s seed=%d\n", *scale, *seed)
	start := time.Now()
	ran := 0
	for _, r := range all {
		if len(selected) > 0 && !selected[r.id] {
			continue
		}
		t0 := time.Now()
		if err := r.run(os.Stdout, p); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n", r.id, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	fmt.Printf("\n%d experiment(s) completed in %v\n", ran, time.Since(start).Round(time.Millisecond))
}
