package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/wal"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %g, want it", got)
	}
	unsorted := []float64{9, 1, 5}
	if got := median(unsorted); got != 5 || !slices.Equal(unsorted, []float64{9, 1, 5}) {
		t.Errorf("median = %g (input now %v), want 5 and the input untouched", got, unsorted)
	}
}

func TestPenalizePutsFailuresAtTheMaximum(t *testing.T) {
	lat := []float64{10, 50, 20, 30}
	penalize(lat, []int{0, 2})
	if want := []float64{50, 50, 50, 30}; !slices.Equal(lat, want) {
		t.Errorf("penalize = %v, want %v", lat, want)
	}
}

func testPopulation(t *testing.T, seed int64) *population {
	t.Helper()
	comm, _ := datagen.Generate(datagen.SmallScale())
	pop, err := newPopulation(comm, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestPlansArePureFunctionsOfTheSeed(t *testing.T) {
	a, b, other := testPopulation(t, 7), testPopulation(t, 7), testPopulation(t, 8)
	prints := func(p *population, seed int64) []string {
		return []string{warmReadPlan(p, seed).fp, coldReadPlan(p).fp, p.churnFingerprint(seed), p.restartFingerprint(seed)}
	}
	pa, pb, po := prints(a, 7), prints(b, 7), prints(other, 8)
	if !slices.Equal(pa, pb) {
		t.Errorf("same seed, different fingerprints: %v vs %v", pa, pb)
	}
	for i := range pa {
		if pa[i] == po[i] {
			t.Errorf("plan %d: seeds 7 and 8 share fingerprint %s", i, pa[i])
		}
	}
	w1, r1 := a.churnCycle(7, 3)
	w2, r2 := b.churnCycle(7, 3)
	if !reflect.DeepEqual(w1, w2) || !slices.Equal(r1, r2) {
		t.Error("churn cycle 3 differs between two builds of the same seed")
	}
}

func TestDrawsStayInsideThePopulation(t *testing.T) {
	pop := testPopulation(t, 11)
	if len(pop.probe) != probeAgents {
		t.Fatalf("probe set has %d agents, want %d", len(pop.probe), probeAgents)
	}
	member := make(map[model.AgentID]bool)
	for _, id := range pop.agents {
		member[id] = true
	}
	for _, id := range pop.probe {
		if member[id] {
			t.Fatalf("probe agent %s is also in the plan's population", id)
		}
	}
	products := make(map[model.ProductID]bool)
	for _, id := range pop.products {
		products[id] = true
	}
	for i := uint64(0); i < 20000; i++ {
		if id := pop.hotAgentAt(i); !member[id] {
			t.Fatalf("hot draw %d = %q, outside the population", i, id)
		}
		w := pop.writeAt(11, i)
		m := w.mut
		if !member[m.Agent] || m.Value < 0.2 || m.Value > 1 {
			t.Fatalf("write %d: agent %q value %g", i, m.Agent, m.Value)
		}
		switch m.Op {
		case wal.OpUpsertTrust:
			if !member[m.Peer] || m.Peer == m.Agent {
				t.Fatalf("write %d: trust %q -> %q", i, m.Agent, m.Peer)
			}
		case wal.OpUpsertRating:
			if !products[m.Product] {
				t.Fatalf("write %d: product %q is not in the catalog", i, m.Product)
			}
		default:
			t.Fatalf("write %d: unexpected op %s", i, m.Op)
		}
	}
	pl := warmReadPlan(pop, 11)
	for i, j := range pl.seq {
		if j < 0 || int(j) >= len(pl.reqs) {
			t.Fatalf("sequence entry %d = %d, outside %d distinct requests", i, j, len(pl.reqs))
		}
	}
	for _, p := range [][]int{shuffled(3, 1), shuffled(3, 50)} {
		seen := make([]bool, len(p))
		for _, v := range p {
			if v < 0 || v >= len(p) || seen[v] {
				t.Fatalf("shuffled is not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestSelfTimeWithNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // plain child
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 130}, // sticks 30 out of the parent
		{ID: 5, Parent: 2, Start: 15, End: 25},  // grandchild: counts against span 2 only
		{ID: 6, Start: 200, End: 250},           // childless root
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (50 + 10), // [10,60) once, plus [90,100)
		2: 30 - 10,
		3: 30,
		4: 40,
		5: 10,
		6: 50,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Coverage is Σ children ÷ Σ parents over roots that have children:
	// (30+30+40) ÷ 100; the childless root does not dilute it.
	if got := coverage(spans); got != 1.0 {
		t.Errorf("coverage = %g, want 1", got)
	}
}

func TestReplayedChildrenAreRebasedIntoTheParent(t *testing.T) {
	tr := newTracer()
	start := tr.epoch.Add(time.Second)
	root := tr.span("parent", 0, start, 10*time.Millisecond)
	a, _ := tr.replay("a", root, func() {})
	b, _ := tr.replay("b", root, func() {})
	pa, sa, sb := tr.spans[root-1], tr.spans[a-1], tr.spans[b-1]
	if sa.Start != pa.Start || sb.Start != sa.End {
		t.Errorf("children at [%d,%d) and [%d,%d), want end to end from the parent's start %d",
			sa.Start, sa.End, sb.Start, sb.End, pa.Start)
	}
	if sa.Req != pa.Req || sb.Req != pa.Req || !sa.Replayed {
		t.Errorf("children req %d,%d replayed=%t, want the parent's req %d and replayed", sa.Req, sb.Req, sa.Replayed, pa.Req)
	}
	if other := tr.span("next request", 0, start, time.Millisecond); tr.spans[other-1].Req == pa.Req {
		t.Error("two root spans share a request id")
	}
	var none *tracer
	ran := false
	if id, _ := none.timed("x", 0, func() { ran = true }); id != 0 || !ran {
		t.Error("a nil tracer must still run the call and record nothing")
	}
	none.sample("m", 1)
	none.close(none.open("x"), start, 0)
}

func TestRepeatBuildDropsEachBuildBeforeTheNext(t *testing.T) {
	type system struct{ payload [1 << 16]byte }
	live, maxLive, released := 0, 0, 0
	finalized := make(chan int, 8)
	last, took, err := repeatBuild(5,
		func(i int) (*system, error) {
			live++
			maxLive = max(maxLive, live)
			s := &system{}
			runtime.SetFinalizer(s, func(*system) { finalized <- i })
			return s, nil
		},
		func(*system) { live--; released++ })
	if err != nil || last == nil || len(took) != 5 {
		t.Fatalf("repeatBuild = %v, %d durations, %v", last, len(took), err)
	}
	if maxLive != 1 || released != 4 {
		t.Errorf("at most %d systems alive at once and %d released, want 1 and 4", maxLive, released)
	}
	// The helper collects between builds, so by now the first four are
	// unreachable; one more cycle lets their finalizers run.
	runtime.GC()
	got := 0
	for deadline := time.After(5 * time.Second); got < 4; {
		select {
		case i := <-finalized:
			if i == 4 {
				t.Fatal("the build that was returned has been collected")
			}
			got++
		case <-deadline:
			t.Fatalf("only %d of 4 dropped builds were collected: the helper still references them", got)
		}
	}
	runtime.KeepAlive(last)

	boom := errors.New("boom")
	_, took, err = repeatBuild(3,
		func(i int) (*system, error) {
			if i == 1 {
				return nil, boom
			}
			return &system{}, nil
		},
		func(*system) {})
	if !errors.Is(err, boom) || len(took) != 1 {
		t.Errorf("failing build: err %v after %d timed builds, want boom after 1", err, len(took))
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json (which the
// driver reads) and the metric and workload tables (which the binary
// reports from) from drifting apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !slices.Equal(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %v\n code %v", file.PerLayer, perLayer)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, code has %q", i, file.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the binary's default is %d", file.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(file.Paths, []string{"bench"}) || !slices.Equal(file.Command, []string{"go", "run", "-C", "bench", "."}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	seen := make(map[string]bool)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: duplicate, too long, or without a direction", d)
		}
		seen[d.Name] = true
	}
}

// TestPhaseKeepsTotalsAcrossSegments pins what the timing metrics are
// made of: every measured segment counts, whole, and the time between
// segments does not.
func TestPhaseKeepsTotalsAcrossSegments(t *testing.T) {
	var ph phase
	for i := 0; i < 3; i++ {
		ph.begin()
		time.Sleep(10 * time.Millisecond)
		ph.end(5)
		time.Sleep(100 * time.Millisecond) // outside the clock
	}
	if ph.ops != 15 {
		t.Errorf("ops = %d, want 15", ph.ops)
	}
	if ph.wall < 30*time.Millisecond || ph.wall >= 300*time.Millisecond {
		t.Errorf("wall = %v, want the three 10 ms segments and none of the 100 ms gaps", ph.wall)
	}
	if ph.cpu < 0 || ph.cpu > ph.wall*warmWorkers {
		t.Errorf("cpu = %v over %v of wall on %d threads", ph.cpu, ph.wall, warmWorkers)
	}
}
