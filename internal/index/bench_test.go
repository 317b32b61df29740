package index

import (
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/taxonomy"
)

// BenchmarkTopicIndex times the index at the benchmark's catalog (9,953
// books over 21,845 topics): building it, and the widest query, the
// whole catalog under the root — which /v1/topics answers uncached, the
// body cache aside.
//
//	go test -run '^$' -bench TopicIndex -benchmem ./internal/index/
func BenchmarkTopicIndex(b *testing.B) {
	cfg := datagen.PaperScale()
	cfg.Agents = 2000
	comm, _ := datagen.Generate(cfg)
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Build(comm)
		}
	})
	b.Run("subtree=root", func(b *testing.B) {
		ix := Build(comm)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Subtree(taxonomy.Root)
		}
	})
}
