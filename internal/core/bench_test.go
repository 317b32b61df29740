package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/trust"
)

// synthInput is one rank synthesis's input: an active agent and its
// stage-1 neighbourhood.
type synthInput struct {
	active model.AgentID
	nb     *trust.Neighborhood
}

// paperSynth holds the paper-scale recommender and synthesis inputs,
// built once per process: the community and its walks take seconds, and
// the framework calls a benchmark function once per b.N it tries.
var paperSynth struct {
	rec    *Recommender
	inputs []synthInput
}

// synthStride spaces the sampled agents over the whole community, so any
// prefix of the cycle samples all of it; every agent's neighbourhood would
// pin ~115 MB of ranks.
const synthStride = 8

// paperSynthInputs returns a recommender with the repo benchmark's
// cold-read options over the paper's community (§4.1:
// datagen.PaperScale, 9,100 agents), its matrix compiled, and the
// default stage-1 neighbourhood — Appleseed and the trust floor — of
// every synthStride-th agent that has one.
func paperSynthInputs(b *testing.B) (*Recommender, []synthInput) {
	b.Helper()
	if paperSynth.rec != nil {
		return paperSynth.rec, paperSynth.inputs
	}
	comm, _ := datagen.Generate(datagen.PaperScale())
	rec, err := New(comm, Options{
		Alpha: 0.5, AlphaSet: true,
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := rec.Filter().Compile(ctx); err != nil {
		b.Fatal(err)
	}
	var inputs []synthInput
	for i, id := range comm.Agents() {
		if i%synthStride != 0 {
			continue
		}
		nb, err := rec.NeighborhoodCtx(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		if len(nb.Ranks) > 0 {
			inputs = append(inputs, synthInput{active: id, nb: nb})
		}
	}
	paperSynth.rec, paperSynth.inputs = rec, inputs
	return rec, inputs
}

// BenchmarkSynthesize measures stages 2 and 3 of a cold request: the
// similarity scan over a real neighbourhood, the blend and the peer order
// that keeps the M best, cycling over agents at the paper's scale. Its
// one allocation is the kept ranking, which outlives the request.
func BenchmarkSynthesize(b *testing.B) {
	b.Run(fmt.Sprintf("agents=%d", datagen.PaperScale().Agents), func(b *testing.B) {
		rec, inputs := paperSynthInputs(b)
		ctx := context.Background()
		// Collect the set-up's garbage and refill the scratch pools first,
		// sized by the largest neighbourhood, as BenchmarkSimilarityScan
		// does: a refill inside the timed loop reads as B/op in
		// proportion to 1/b.N.
		runtime.GC()
		largest := inputs[0]
		for _, in := range inputs {
			if len(in.nb.Ranks) > len(largest.nb.Ranks) {
				largest = in
			}
		}
		if _, err := rec.SynthesizeCtx(ctx, largest.active, largest.nb); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := inputs[i%len(inputs)]
			if _, err := rec.SynthesizeCtx(ctx, in.active, in.nb); err != nil {
				b.Fatal(err)
			}
		}
	})
}
