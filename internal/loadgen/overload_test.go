package loadgen

import (
	"context"
	"os"
	"testing"
	"time"

	"swrec/internal/ingest"
	"swrec/internal/wal"
)

// slowFile throttles WAL appends so the ingest queue backs up under
// churn — the fault-injection seam wal.Options.WrapFile exists for.
type slowFile struct {
	f *os.File
}

func (s slowFile) Write(p []byte) (int, error) {
	time.Sleep(2 * time.Millisecond)
	return s.f.Write(p)
}
func (s slowFile) ReadAt(p []byte, off int64) (int, error)      { return s.f.ReadAt(p, off) }
func (s slowFile) Seek(offset int64, whence int) (int64, error) { return s.f.Seek(offset, whence) }
func (s slowFile) Truncate(size int64) error                    { return s.f.Truncate(size) }
func (s slowFile) Sync() error                                  { return s.f.Sync() }
func (s slowFile) Close() error                                 { return s.f.Close() }

// churnScenario is write-heavy: sustained joins, trust edits, and
// retractions from many workers against a deliberately tiny queue.
func churnScenario() *Scenario {
	sc := &Scenario{
		Name: "churn-overload",
		Seed: 23,
		Community: Community{
			Agents: 80, Products: 100, Clusters: 4, MeanRatings: 5, MeanTrust: 4,
		},
		Workload: Workload{
			Events: 600, Concurrency: 8, ZipfS: 0.8, ReadFraction: 0.05,
			Churn: Churn{TrustPerJoin: 3, RatingsPerJoin: 2},
		},
		Samples: 4,
		TopK:    5,
	}
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	return sc
}

// TestOverloadRetryAfterBand drives sustained churn into a 2-deep
// ingest queue behind a throttled WAL and asserts the documented
// overload contract: 503s carry Retry-After within the 1–8s band, and
// every write that was acked with a WAL sequence number is still there
// after a crash and restart mid-scenario.
func TestOverloadRetryAfterBand(t *testing.T) {
	sc := churnScenario()
	walDir := t.TempDir()
	ctx := context.Background()
	cfg := ingest.Config{
		QueueSize: 2, BatchSize: 1,
		SnapshotEvery: 1 << 30, SnapshotInterval: time.Hour, // manual control only
		WAL: wal.Options{WrapFile: func(f *os.File) wal.File { return slowFile{f: f} }},
	}
	p, err := BuildInProc(ctx, sc, walDir, cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan := Plan(sc)
	half := len(plan) / 2
	runner := &Runner{Scenario: sc, Plan: plan[:half], Resolver: p.Resolver, Target: HandlerTarget{Handler: p.Handler}}
	res, err := runner.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if res.Overloaded == 0 {
		t.Fatal("no 503 despite 8 workers against a 2-deep queue on a throttled WAL")
	}
	if res.RetryAfterMin < 1 || res.RetryAfterMax > 8 {
		t.Fatalf("Retry-After outside documented 1–8s band: min=%d max=%d",
			res.RetryAfterMin, res.RetryAfterMax)
	}
	if len(res.Acked) == 0 {
		t.Fatal("nothing was acked; overload test needs surviving writes to verify")
	}

	// Crash mid-scenario: no checkpoint, no flush — durability must come
	// from the WAL alone.
	var maxSeq uint64
	for _, a := range res.Acked {
		if a.Seq > maxSeq {
			maxSeq = a.Seq
		}
	}
	p.Pipeline.Abort()

	// Restart: regenerate the same base community and replay the WAL.
	p2, err := BuildInProc(ctx, sc, walDir, ingest.Config{
		SnapshotEvery: 1 << 30, SnapshotInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, seq := p2.Pipeline.Applied(); seq < maxSeq {
		t.Fatalf("replay stopped at seq %d, but seq %d was acked before the crash", seq, maxSeq)
	}

	// Every acked join must be visible to reads after restart.
	snapComm := p2.Engine.Snapshot().Community()
	verified := 0
	for _, a := range res.Acked {
		ev := plan[a.EventIdx]
		if ev.Endpoint != EpWriteJoin {
			continue
		}
		id := p2.Resolver.JoinerID(joinerOrdinal(ev.Agent))
		if snapComm.Agent(id) == nil {
			t.Fatalf("join of %s was acked (seq %d) but is gone after restart", id, a.Seq)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("no join was acked in the first half; scenario too small to verify survival")
	}

	// The second half of the scenario continues against the restarted
	// server — the same deterministic plan, new process.
	runner2 := &Runner{Scenario: sc, Plan: plan[half:], Resolver: p2.Resolver, Target: HandlerTarget{Handler: p2.Handler}}
	res2, err := runner2.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completed != len(plan)-half {
		t.Fatalf("post-restart half completed %d of %d", res2.Completed, len(plan)-half)
	}
	for _, v := range sc.SLO.Check(res2) {
		t.Errorf("post-restart SLO violation: %s", v)
	}
}
