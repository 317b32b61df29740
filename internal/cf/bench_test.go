package cf

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/trust"
)

// scanInput is one serving scan's input: an active agent and the
// ordinals of its Appleseed neighbourhood, in rank order.
type scanInput struct {
	active int32
	peers  []int32
}

// paperScans holds the paper-scale filter and scan inputs, built once per
// process: the community and its walks take seconds, and the framework
// calls a benchmark function once per b.N it tries.
var paperScans struct {
	f      *Filter
	inputs []scanInput
}

// paperScanInputs returns a compiled cosine filter over the paper's
// community (§4.1: datagen.PaperScale, 9,100 agents) and one scan input
// per agent whose default Appleseed walk ranks anyone — the scans
// rank synthesis runs on cold requests, in agent order.
func paperScanInputs(b *testing.B) (*Filter, []scanInput) {
	b.Helper()
	if paperScans.f != nil {
		return paperScans.f, paperScans.inputs
	}
	comm, _ := datagen.Generate(datagen.PaperScale())
	f, err := New(comm, Options{Measure: Cosine, Representation: Taxonomy})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Compile(ctx); err != nil {
		b.Fatal(err)
	}
	adj := comm.Adjacency()
	var inputs []scanInput
	for ord := range int32(adj.NumAgents()) {
		nb, err := trust.Appleseed(ctx, adj, ord, trust.AppleseedOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(nb.Ranks) == 0 {
			continue
		}
		in := scanInput{active: ord, peers: make([]int32, len(nb.Ranks))}
		for i, r := range nb.Ranks {
			in.peers[i] = r.Ord()
		}
		inputs = append(inputs, in)
	}
	paperScans.f, paperScans.inputs = f, inputs
	return f, inputs
}

// BenchmarkSimilarityScan measures stage 2 of a cold request alone: one
// Filter.Similarities over an agent's real neighbourhood, cycling over
// the agents, at the paper's scale.
func BenchmarkSimilarityScan(b *testing.B) {
	b.Run(fmt.Sprintf("agents=%d", datagen.PaperScale().Agents), func(b *testing.B) {
		f, inputs := paperScanInputs(b)
		out := make([]SimResult, trust.DefaultMaxNodes+1)
		ctx := context.Background()
		// Collect the set-up's garbage and refill the scratch pool first:
		// a collection inside the timed loop would empty the pool, and
		// the one refill would read as B/op in proportion to 1/b.N.
		runtime.GC()
		if err := f.Similarities(ctx, inputs[0].active, inputs[0].peers, out); err != nil {
			b.Fatal(err)
		}
		rows := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := inputs[i%len(inputs)]
			if err := f.Similarities(ctx, in.active, in.peers, out); err != nil {
				b.Fatal(err)
			}
			rows += len(in.peers)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	})
}
