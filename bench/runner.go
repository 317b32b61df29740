package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a process of its own — every workload
// starts from a fresh heap — copying its output through and returning
// the result line.
func child(name string, seed int64, seconds, trace int) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	last, copyErr := copyLines(out, os.Stdout)
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("workload %s: %w", name, err)
	}
	if copyErr != nil {
		return res, copyErr
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("workload %s: last line is not a result: %w", name, err)
	}
	return res, nil
}

// copyLines copies r to w line by line and returns the last line.
func copyLines(r io.Reader, w io.Writer) (last string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(w, last)
	}
	return last, sc.Err()
}

// runAll runs the four workloads in sequence.
func runAll(seed int64, seconds, trace int) error {
	for _, wl := range workloads {
		if _, err := child(wl.name, seed, seconds, trace); err != nil {
			return err
		}
	}
	return nil
}

// selfCheck is the repeatability evidence: every workload four times in
// A,B,B,A order (so slow drift of the box lands on both sets alike),
// then per end-to-end metric |A−B|/A, where A and B are the means of
// their two runs, against half the metric's bound.
func selfCheck(seed int64, seconds int) error {
	sets := [4]map[string]result{}
	for i := range sets {
		sets[i] = make(map[string]result)
		for _, wl := range workloads {
			res, err := child(wl.name, seed, seconds, 0)
			if err != nil {
				return err
			}
			sets[i][wl.name] = res
		}
	}
	fmt.Printf("\nselfcheck seed=%d seconds=%d order=A,B,B,A\n", seed, seconds)
	fmt.Printf("%-10s %-14s %12s %12s %8s %8s  %s\n", "workload", "metric", "A", "B", "|A-B|/A", "bound/2", "")
	failed := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			val := func(i int) float64 { return sets[i][wl.name].Metrics[def.Name].Value }
			a, b := (val(0)+val(3))/2, (val(1)+val(2))/2
			dev := math.Abs(a-b) / a
			verdict := "ok"
			if dev > def.Bound/2 {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-10s %-14s %12.6g %12.6g %8.4f %8.4f  %s\n", wl.name, def.Name, a, b, dev, def.Bound/2, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two sets of runs by more than half their bound", failed)
	}
	fmt.Println("selfcheck: every end-to-end metric repeats within half its bound")
	return nil
}
