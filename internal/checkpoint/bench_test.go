package checkpoint

import (
	"fmt"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/model"
)

// The yardsticks for checkpointed restarts, at the benchmark's community
// size and the paper's: loading the compiled snapshot against rebuilding
// it. Load + Restore is O(file size) and brings back the statements, the
// profile matrix and every cached neighborhood (the topic index is not
// stored; it is derived on first use): ~16 ms at 2,000 agents, ~51 ms at
// 9,100, on two cores (BENCH_engine.json). The recompute — engine.New
// plus a full Warmup — is ~340 ms and ~1.58 s: ~20x and ~30x.
// About nine tenths of the recompute is the warm-up, one trust walk and
// similarity scan per agent; the neighborhoods it would produce are two
// thirds of the file, checked by the load but decoded only when read.
//
//	go test -run '^$' -bench 'CheckpointLoad|ColdRecompute' -benchmem ./internal/checkpoint/
//
// The write side, Capture + Encode of a warmed snapshot, is
// BenchmarkCheckpointEncode.

func benchCommunity(agents int) *model.Community {
	cfg := datagen.PaperScale()
	cfg.Agents = agents
	comm, _ := datagen.Generate(cfg)
	return comm
}

func benchEngine(b *testing.B, agents int) *engine.Engine {
	b.Helper()
	eng, err := engine.New(benchCommunity(agents), testOptions(), testConfig())
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkCheckpointLoad measures a warm restart: read, checksum-
// validate, decode, and restore one compiled checkpoint into a serving
// engine.
func BenchmarkCheckpointLoad(b *testing.B) {
	for _, agents := range []int{2000, 9100} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			eng := benchEngine(b, agents)
			eng.Warmup(0)
			path, err := WriteImage(b.TempDir(), Capture(eng.Snapshot(), 1), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img, err := Load(path, testOptions())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := img.Restore(testConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdRecompute measures the restart path a checkpoint avoids:
// building the engine from the corpus and warming every agent's
// neighborhood and profile from scratch.
func BenchmarkColdRecompute(b *testing.B) {
	for _, agents := range []int{2000, 9100} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			comm := benchCommunity(agents)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := engine.New(comm, testOptions(), testConfig())
				if err != nil {
					b.Fatal(err)
				}
				eng.Warmup(0)
			}
		})
	}
}

// BenchmarkCheckpointEncode measures the in-memory half of a checkpoint
// write from a warmed snapshot: Capture, which exports the warm
// neighborhood cache under its mutex, and the streamed encode WriteImage
// runs, into a sink — no file, no fsync. It reports the file's size as
// file_MB: the encode holds one section at a time, so B/op stays under
// twice it.
func BenchmarkCheckpointEncode(b *testing.B) {
	for _, agents := range []int{2000, 9100} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			eng := benchEngine(b, agents)
			eng.Warmup(0)
			snap := eng.Snapshot()
			var sink counter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = 0
				if err := write(&sink, Capture(snap, 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sink)/1e6, "file_MB")
		})
	}
}

// counter is a sink that counts what is written to it.
type counter int64

func (c *counter) Write(p []byte) (int, error) {
	*c += counter(len(p))
	return len(p), nil
}
