package checkpoint_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"testing"

	"swrec/internal/api"
	"swrec/internal/checkpoint"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/wal"
)

// BenchmarkRecover is a kill -9 restart at the benchmark's community
// size, as one operation: walk the recovery ladder to the newest
// checkpoint (warm neighborhoods and all), reopen ingest at its sequence —
// which replays a 128-record WAL tail and publishes — and answer one
// /recommendations read. The tail's publish drops nearly every restored
// neighborhood, so what this measures is mostly what a restart derives
// that it never reads: per-topic Eq. 3 tables or eagerly decoded ranks
// show up here as time and allocations.
//
//	go test -run '^$' -bench BenchmarkRecover -benchmem ./internal/checkpoint/
func BenchmarkRecover(b *testing.B) {
	const agents, tail = 2000, 128
	b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
		cfg := datagen.PaperScale()
		cfg.Agents = agents
		base, _ := datagen.Generate(cfg)
		dir := b.TempDir()
		eng, err := engine.New(base.Clone(), rOptions(), rConfig())
		if err != nil {
			b.Fatal(err)
		}
		pipe, err := ingest.Open(eng, dir, rIngest())
		if err != nil {
			b.Fatal(err)
		}
		muts := rMutations(base, 2*tail)
		submit := func(ms []wal.Mutation) {
			for _, m := range ms {
				if _, err := pipe.Submit(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := pipe.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		submit(muts[:tail])
		eng.Warmup(0)
		_, seq := pipe.Applied()
		if err := os.MkdirAll(checkpoint.Dir(dir), 0o755); err != nil {
			b.Fatal(err)
		}
		if _, err := checkpoint.WriteImage(checkpoint.Dir(dir), checkpoint.Capture(eng.Snapshot(), seq), nil); err != nil {
			b.Fatal(err)
		}
		submit(muts[tail:])
		_ = pipe.Abort() // kill -9: the tail is in the WAL, not in any checkpoint
		read := "/v1/agents/" + url.PathEscape(string(base.Agents()[0])) + "/recommendations"
		rcfg := checkpoint.RecoverConfig{
			WALDir:  dir,
			Options: rOptions(),
			Engine:  rConfig(),
			Corpus:  func() (*model.Community, error) { return nil, fmt.Errorf("recovery fell through to the corpus") },
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := checkpoint.Recover(rcfg)
			if err != nil || res.Rung != 1 {
				b.Fatalf("recover: rung %v, %v", res, err)
			}
			p, err := ingest.OpenFrom(res.Engine, dir, rIngest(), res.Seq)
			if err != nil {
				b.Fatal(err)
			}
			rec := httptest.NewRecorder()
			api.New(res.Engine).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, read, nil))
			if rec.Code != http.StatusOK || p.Replayed() != tail {
				b.Fatalf("first read %d after replaying %d records, want 200 after %d", rec.Code, p.Replayed(), tail)
			}
			_ = p.Abort() // nothing pending; the next round recovers the same directory
		}
	})
}
