// Command experiments regenerates the experiment tables of DESIGN.md's
// index (E1–E12), each validating one quantitative claim of the paper.
//
// Usage:
//
//	experiments [-run E1,E4] [-scale small|medium|paper] [-seed N]
//
// With no -run flag every experiment runs in order. The paper scale uses
// the §4.1 corpus dimensions (9,100 agents, 9,953 books, >20k topics) and
// takes correspondingly longer. `make experiments` writes the small
// suite's report to experiments_small_output.txt, the record the
// experiments package's tests compare against.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"swrec/internal/experiments"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment IDs (e.g. E1,E4); empty = all")
	scale := flag.String("scale", "small", "dataset scale: small | medium | paper")
	seed := flag.Int64("seed", 1, "random seed (all experiments are deterministic given a seed)")
	flag.Parse()

	selected := map[string]bool{}
	if *runFlag != "" {
		for _, id := range strings.Split(*runFlag, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		for id := range selected {
			found := false
			for _, e := range experiments.All() {
				if e.ID == id {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
				os.Exit(2)
			}
		}
	}

	if err := experiments.Suite(os.Stdout, experiments.Params{Seed: *seed, Scale: *scale}, selected); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
