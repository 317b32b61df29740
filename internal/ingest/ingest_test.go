package ingest

import (
	"errors"
	"expvar"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/checkpoint"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/frame"
	"swrec/internal/isbn"
	"swrec/internal/model"
	"swrec/internal/wal"
)

func testCommunity(t testing.TB, agents, products int) *model.Community {
	t.Helper()
	cfg := datagen.SmallScale()
	cfg.Agents = agents
	cfg.Products = products
	comm, _ := datagen.Generate(cfg)
	return comm
}

func testOptions() core.Options {
	return core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
}

func testEngine(t testing.TB, comm *model.Community) *engine.Engine {
	t.Helper()
	eng, err := engine.New(comm, testOptions(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testRecover walks the recovery ladder over dir the way a restart of a
// testEngine server would; corpus is the last rung's source.
func testRecover(t *testing.T, dir string, corpus func() (*model.Community, error)) *checkpoint.Result {
	t.Helper()
	res, err := checkpoint.Recover(checkpoint.RecoverConfig{WALDir: dir, Options: testOptions(), Corpus: corpus, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lazyConfig disables every automatic snapshot trigger so tests control
// application explicitly via Flush.
func lazyConfig() Config {
	return Config{SnapshotEvery: 1 << 30, SnapshotInterval: time.Hour}
}

// testMutations fabricates n valid mutations against comm: trust edges,
// ratings of cataloged products, retractions, and agent upserts.
func testMutations(comm *model.Community, n int) []wal.Mutation {
	ids := comm.Agents()
	pids := comm.Products()
	out := make([]wal.Mutation, 0, n)
	for i := 0; len(out) < n; i++ {
		src := ids[i%len(ids)]
		dst := ids[(i+7)%len(ids)]
		if src == dst {
			dst = ids[(i+8)%len(ids)]
		}
		switch i % 5 {
		case 0:
			out = append(out, wal.Mutation{Op: wal.OpUpsertTrust, Agent: src, Peer: dst, Value: float64(i%20)/10 - 1})
		case 1:
			out = append(out, wal.Mutation{Op: wal.OpUpsertRating, Agent: src, Product: pids[i%len(pids)], Value: float64(i%19)/9 - 1})
		case 2:
			out = append(out, wal.Mutation{Op: wal.OpDeleteTrust, Agent: src, Peer: dst})
		case 3:
			out = append(out, wal.Mutation{Op: wal.OpUpsertAgent, Agent: model.AgentID(fmt.Sprintf("http://new/agent%d", i)), Name: fmt.Sprintf("Agent %d", i)})
		case 4:
			out = append(out, wal.Mutation{Op: wal.OpDeleteRating, Agent: src, Product: pids[i%len(pids)]})
		}
	}
	return out
}

// digest canonically serializes a community's agents, names, trust
// functions, ratings, and catalog, so two states can be compared
// byte-for-byte regardless of map iteration order.
func digest(c *model.Community) string {
	var b strings.Builder
	ids := append([]model.AgentID(nil), c.Agents()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := c.Agent(id)
		fmt.Fprintf(&b, "agent %s name=%q\n", id, a.Name)
		for _, st := range c.TrustStatements(a) {
			fmt.Fprintf(&b, "  trust %s %.17g\n", st.Dst, st.Value)
		}
		for _, rt := range c.RatingStatements(a) {
			fmt.Fprintf(&b, "  rating %s %.17g\n", rt.Product, rt.Value)
		}
	}
	pids := append([]model.ProductID(nil), c.Products()...)
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		p := c.Product(pid)
		// Topic IDs are assigned at taxonomy parse time and are not
		// stable across an export/import; qualified names are.
		names := make([]string, len(p.Topics))
		for i, d := range p.Topics {
			names[i] = c.Taxonomy().QualifiedName(d)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "product %s title=%q isbn=%q topics=%v\n", pid, p.Title, p.ISBN, names)
	}
	return b.String()
}

func TestSubmitDurableAndAppliedOnFlush(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	eng := testEngine(t, comm)
	dir := t.TempDir()
	p, err := Open(eng, dir, lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	src, dst := comm.Agents()[0], comm.Agents()[1]
	seq, err := p.Submit(wal.Mutation{Op: wal.OpUpsertTrust, Agent: src, Peer: dst, Value: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	// Not yet visible: the serving snapshot is immutable.
	if v, ok := eng.Snapshot().Community().Trust(src, dst); ok && v == 0.75 {
		t.Fatal("mutation visible before snapshot swap")
	}
	epochBefore := eng.Epoch()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != epochBefore+1 {
		t.Fatalf("Flush did not publish a new epoch: %d -> %d", epochBefore, eng.Epoch())
	}
	if v, ok := eng.Snapshot().Community().Trust(src, dst); !ok || v != 0.75 {
		t.Fatalf("applied trust = %v,%v, want 0.75", v, ok)
	}
	// The original community must be untouched (applied on a clone).
	if _, ok := comm.Trust(src, dst); ok {
		t.Fatal("mutation leaked into the pre-swap community")
	}
	ep, ap := p.Applied()
	if ep != eng.Epoch() || ap != 1 {
		t.Fatalf("Applied() = (%d,%d), want (%d,1)", ep, ap, eng.Epoch())
	}
	// An empty Flush is a no-op, not a new epoch.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != epochBefore+1 {
		t.Fatal("empty flush published a gratuitous epoch")
	}
	// CheckpointEvery is 0: no checkpoint is written, not even by Close.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if infos, err := checkpoint.List(checkpoint.Dir(dir)); err != nil || len(infos) != 0 {
		t.Fatalf("checkpoints with CheckpointEvery 0: %v, err %v", infos, err)
	}
}

func TestSizeTriggerSnapshots(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	eng := testEngine(t, comm)
	cfg := lazyConfig()
	cfg.SnapshotEvery = 10
	p, err := Open(eng, t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for _, m := range testMutations(comm, 25) {
		if _, err := p.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	// 25 sequential submissions with threshold 10 must have produced at
	// least two swaps (batching may group them differently).
	deadline := time.Now().Add(5 * time.Second)
	for eng.Epoch() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if eng.Epoch() < 3 {
		t.Fatalf("size trigger produced only epoch %d", eng.Epoch())
	}
}

func TestIntervalTriggerSnapshots(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	eng := testEngine(t, comm)
	cfg := lazyConfig()
	cfg.SnapshotInterval = 20 * time.Millisecond
	p, err := Open(eng, t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Submit(wal.Mutation{Op: wal.OpUpsertAgent, Agent: "http://x/late"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Epoch() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !eng.Snapshot().Community().HasAgent("http://x/late") {
		t.Fatal("interval trigger never applied the mutation")
	}
}

func TestBackpressureErrOverloaded(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	eng := testEngine(t, comm)
	cfg := lazyConfig()
	cfg.QueueSize = 1
	cfg.BatchSize = 1
	p, err := Open(eng, t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Hold the worker at the gate: with capacity 2 in flight (one
	// dequeued and held, one resident in the queue of 1), at least 3 of
	// 5 concurrent submissions must bounce with ErrOverloaded, and none
	// may be silently lost.
	gate := make(chan struct{})
	p.gate = gate

	var wg sync.WaitGroup
	var accepted, overloaded, other int64
	var mu sync.Mutex
	for _, m := range testMutations(comm, 5) {
		wg.Add(1)
		go func(m wal.Mutation) {
			defer wg.Done()
			_, err := p.Submit(m)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted++
			case errors.Is(err, ErrOverloaded):
				overloaded++
			default:
				other++
			}
		}(m)
	}
	// Wait until the rejections have happened, then release the worker so
	// the accepted submissions get their durable acks.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := overloaded+other >= 3
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if other != 0 {
		t.Fatalf("%d submissions failed with unexpected errors", other)
	}
	if accepted == 0 {
		t.Fatal("no submission was accepted")
	}
	if overloaded < 3 {
		t.Fatalf("overloaded = %d, want >= 3 (capacity is 2 with the worker held)", overloaded)
	}
	// Every acknowledged mutation is durable.
	if st := p.w.Stats(); st.Appended != uint64(accepted) {
		t.Fatalf("WAL holds %d records, %d were acknowledged", st.Appended, accepted)
	}
}

func TestValidation(t *testing.T) {
	comm := testCommunity(t, 10, 10)
	eng := testEngine(t, comm)
	p, err := Open(eng, t.TempDir(), lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bad := []wal.Mutation{
		{Op: wal.OpUpsertTrust, Agent: "", Peer: "b", Value: 0.5},
		{Op: wal.OpUpsertTrust, Agent: "a", Peer: "", Value: 0.5},
		{Op: wal.OpUpsertTrust, Agent: "a", Peer: "a", Value: 0.5},
		{Op: wal.OpUpsertTrust, Agent: "a", Peer: "b", Value: 1.5},
		{Op: wal.OpUpsertRating, Agent: "a", Product: "", Value: 0.5},
		{Op: wal.OpUpsertRating, Agent: "a", Product: "p", Value: -2},
		{Op: wal.OpUpsertTrust, Agent: "a", Peer: "b", Value: math.NaN()},
		{Op: wal.OpUpsertRating, Agent: "a", Product: "p", Value: math.NaN()},
		{Op: wal.OpDeleteTrust, Agent: "a", Peer: "a"},
		{Op: 0, Agent: "a"},
		{Op: 99, Agent: "a"},
	}
	for _, m := range bad {
		if _, err := p.Submit(m); !errors.Is(err, ErrInvalid) {
			t.Fatalf("Submit(%+v) = %v, want ErrInvalid", m, err)
		}
	}
	if st := p.w.Stats(); st.Appended != 0 {
		t.Fatalf("invalid mutations reached the WAL: %d records", st.Appended)
	}

	// ValidateIn: uncataloged product needs a checksum-valid ISBN URN.
	view := eng.Snapshot().Community()
	known := wal.Mutation{Op: wal.OpUpsertRating, Agent: "a", Product: view.Products()[0], Value: 0.5}
	if err := ValidateIn(view, known); err != nil {
		t.Fatalf("cataloged product rejected: %v", err)
	}
	urn := wal.Mutation{Op: wal.OpUpsertRating, Agent: "a",
		Product: model.ProductID(isbn.URN(isbn.Synthesize(424242))), Value: 0.5}
	if err := ValidateIn(view, urn); err != nil {
		t.Fatalf("valid ISBN URN rejected: %v", err)
	}
	junk := wal.Mutation{Op: wal.OpUpsertRating, Agent: "a", Product: "urn:isbn:12345", Value: 0.5}
	if err := ValidateIn(view, junk); !errors.Is(err, ErrInvalid) {
		t.Fatalf("checksum-failing ISBN accepted: %v", err)
	}
	if err := ValidateIn(view, wal.Mutation{Op: wal.OpUpsertRating, Agent: "a", Product: "http://x/unknown", Value: 0.5}); !errors.Is(err, ErrInvalid) {
		t.Fatal("uncataloged non-ISBN product accepted")
	}
}

// TestReplayRejectsNaN: a log that holds a NaN statement — written by a
// build whose gate let NaN through, or by anything else with access to
// the directory — replays every record, counts the two it cannot apply,
// and publishes a community without them: one NaN trust value would
// otherwise reach every Appleseed walk that crosses its edge.
func TestReplayRejectsNaN(t *testing.T) {
	comm := testCommunity(t, 10, 10)
	ids, pids := comm.Agents(), comm.Products()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append([]wal.Mutation{
		{Op: wal.OpUpsertTrust, Agent: ids[0], Peer: ids[5], Value: math.NaN()},
		{Op: wal.OpUpsertRating, Agent: ids[0], Product: pids[9], Value: math.NaN()},
		{Op: wal.OpUpsertTrust, Agent: ids[0], Peer: ids[6], Value: 0.25},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, hadTrust := comm.Trust(ids[0], ids[5])
	_, hadRating := comm.Rating(ids[0], pids[9])

	eng := testEngine(t, comm)
	applyErrors := func() int64 {
		n, _ := expvar.Get("swrec_ingest").(*expvar.Map).Get("apply_errors").(*expvar.Int) // absent until the first one
		if n == nil {
			return 0
		}
		return n.Value()
	}
	rejected := applyErrors()
	p, err := Open(eng, dir, lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Replayed() != 3 {
		t.Fatalf("replayed %d records, want 3", p.Replayed())
	}
	if got := applyErrors() - rejected; got != 2 {
		t.Fatalf("replay rejected %d records, want the 2 NaN ones", got)
	}
	got := eng.Snapshot().Community()
	if v, ok := got.Trust(ids[0], ids[6]); !ok || v != 0.25 {
		t.Fatalf("the valid record was not applied: %v, %v", v, ok)
	}
	if v, ok := got.Trust(ids[0], ids[5]); ok != hadTrust || math.IsNaN(v) {
		t.Fatalf("NaN trust applied: %v, %v", v, ok)
	}
	if v, ok := got.Rating(ids[0], pids[9]); ok != hadRating || math.IsNaN(v) {
		t.Fatalf("NaN rating applied: %v, %v", v, ok)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	comm := testCommunity(t, 10, 10)
	eng := testEngine(t, comm)
	p, err := Open(eng, t.TempDir(), lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if _, err := p.Submit(testMutations(comm, 1)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v", err)
	}
}

func TestCloseAppliesPending(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents, cfg.Products = 15, 20
	base, _ := datagen.Generate(cfg)
	eng := testEngine(t, base)
	dir := t.TempDir()
	p, err := Open(eng, dir, lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := base.Agents()[0], base.Agents()[1]
	if _, err := p.Submit(wal.Mutation{Op: wal.OpUpsertTrust, Agent: src, Peer: dst, Value: -0.5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Snapshot().Community().Trust(src, dst); !ok || v != -0.5 {
		t.Fatal("Close did not apply the pending delta")
	}
	if infos, err := checkpoint.List(checkpoint.Dir(dir)); err != nil || len(infos) != 0 {
		t.Fatalf("Close wrote checkpoints with CheckpointEvery 0: %v, err %v", infos, err)
	}
}

// TestCrashRecoveryReplayMatchesCleanRun is the acceptance criterion:
// kill the pipeline after N appended-but-unapplied mutations; on
// restart, WAL replay must reproduce exactly (byte-equal under canonical
// serialization) the community a clean run of the same mutations
// produces.
func TestCrashRecoveryReplayMatchesCleanRun(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents, cfg.Products = 25, 30
	gen := func() *model.Community { c, _ := datagen.Generate(cfg); return c }
	muts := testMutations(gen(), 40)

	// Clean run: every mutation applied through the pipeline, no crash.
	cleanEng := testEngine(t, gen())
	cleanPipe, err := Open(cleanEng, t.TempDir(), lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if _, err := cleanPipe.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := cleanPipe.Close(); err != nil {
		t.Fatal(err)
	}
	want := digest(cleanEng.Snapshot().Community())

	// Crashed run: first 15 mutations applied (flushed), next 25
	// acknowledged but never applied, then the pipeline is killed.
	dir := t.TempDir()
	eng1 := testEngine(t, gen())
	p1, err := Open(eng1, dir, lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts[:15] {
		if _, err := p1.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, m := range muts[15:] {
		if _, err := p1.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.Abort(); err != nil { // kill -9: no flush, no checkpoint
		t.Fatal(err)
	}

	// Restart from the original base corpus (no checkpoint was written,
	// so the WAL holds all 40 records).
	eng2 := testEngine(t, gen())
	p2, err := Open(eng2, dir, lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Replayed(); got != 40 {
		t.Fatalf("replayed %d records, want 40", got)
	}
	if got := digest(eng2.Snapshot().Community()); got != want {
		t.Fatalf("replayed state differs from clean run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestCheckpointSkippedWhileWriterBusy covers the skip path: while the
// writer persists one image and holds the next in its slot, a third
// publish skips its checkpoint; once the writer is released it writes
// the two it had.
func TestCheckpointSkippedWhileWriterBusy(t *testing.T) {
	counter := func(name string) int64 {
		n, _ := expvar.Get("swrec_ingest").(*expvar.Map).Get(name).(*expvar.Int) // absent until the first one
		if n == nil {
			return 0
		}
		return n.Value()
	}
	skipped, written := counter("compiled_checkpoint_skipped"), counter("compiled_checkpoints")

	comm := testCommunity(t, 25, 30)
	muts := testMutations(comm, 3)
	entered, release := make(chan struct{}, len(muts)), make(chan struct{})
	cfg := lazyConfig()
	cfg.CheckpointEvery = 1
	cfg.CheckpointWrap = func(f *os.File) frame.File {
		entered <- struct{}{}
		<-release
		return f
	}
	dir := t.TempDir()
	p, err := Open(testEngine(t, comm), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	publish := func(m wal.Mutation) {
		t.Helper()
		if _, err := p.Submit(m); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	publish(muts[0])
	<-entered // the writer is inside the first write; its slot is free
	publish(muts[1])
	publish(muts[2])
	if got := counter("compiled_checkpoint_skipped") - skipped; got != 1 {
		t.Fatalf("%d checkpoints skipped with the writer busy, want 1", got)
	}
	close(release)
	if err := p.Abort(); err != nil { // waits for the writer
		t.Fatal(err)
	}
	if got := counter("compiled_checkpoints") - written; got != 2 {
		t.Fatalf("%d checkpoints written after release, want 2", got)
	}
	if infos, err := checkpoint.List(checkpoint.Dir(dir)); err != nil || len(infos) != 2 {
		t.Fatalf("checkpoints on disk: %v, err %v; want 2", infos, err)
	}
}

// TestCheckpointTruncatesAndRestartsFromSnapshot covers the durable
// checkpoint on a running pipeline: with a checkpoint per publish the WAL
// stays bounded however many rounds run, every retained checkpoint keeps
// the tail it would need to be recovered from, and a crash after any
// round recovers — checkpoint.Recover, then OpenFrom replaying only the
// records above the checkpoint — to the state a clean run of the same
// mutations produces.
func TestCheckpointTruncatesAndRestartsFromSnapshot(t *testing.T) {
	const rounds, applied, tail = 8, 10, 5
	cfg := datagen.SmallScale()
	cfg.Agents, cfg.Products = 25, 30
	gen := func() *model.Community { c, _ := datagen.Generate(cfg); return c }
	muts := testMutations(gen(), rounds*(applied+tail))

	// The clean run: the same mutations, no checkpoints, no crashes.
	cleanEng := testEngine(t, gen())
	clean, err := Open(cleanEng, t.TempDir(), lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	dir := t.TempDir()
	wcfg := lazyConfig()
	wcfg.CheckpointEvery = 1
	wcfg.CheckpointRetain = 2
	wcfg.WAL.SegmentBytes = 256 // a few records per segment, so truncation has segments to remove
	p, err := Open(testEngine(t, gen()), dir, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(p *Pipeline, ms []wal.Mutation) {
		t.Helper()
		for _, m := range ms {
			if _, err := p.Submit(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	var segs []int
	for r := 0; r < rounds; r++ {
		round := muts[r*(applied+tail) : (r+1)*(applied+tail)]
		ckptSeq := uint64(r*(applied+tail) + applied)
		// One publish, so one checkpoint; then writes that are acknowledged
		// but never applied; then kill -9. Abort waits for the checkpoint
		// writer, so the directory is settled when it returns.
		submit(p, round[:applied])
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		submit(p, round[applied:])
		if err := p.Abort(); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, p.w.Stats().Segments)

		infos, err := checkpoint.List(checkpoint.Dir(dir))
		if err != nil || len(infos) == 0 || len(infos) > wcfg.CheckpointRetain {
			t.Fatalf("round %d: %d checkpoints retained (err %v), want 1..%d", r, len(infos), err, wcfg.CheckpointRetain)
		}
		oldest, ok, err := wal.OldestSeq(dir)
		if err != nil || !ok {
			t.Fatalf("round %d: OldestSeq ok=%v err=%v", r, ok, err)
		}
		if last := infos[len(infos)-1]; oldest > last.Seq+1 {
			t.Fatalf("round %d: WAL starts at seq %d, but retained checkpoint %d needs its tail from %d", r, oldest, last.Seq, last.Seq+1)
		}

		res := testRecover(t, dir, func() (*model.Community, error) { return gen(), nil })
		if res.Rung != 1 || res.Seq != ckptSeq {
			t.Fatalf("round %d: recovered on rung %d (%s) at seq %d, want rung 1 at %d; fallbacks: %v",
				r, res.Rung, res.Source, res.Seq, ckptSeq, res.Fallbacks)
		}
		if p, err = OpenFrom(res.Engine, dir, wcfg, res.Seq); err != nil {
			t.Fatal(err)
		}
		if got := p.Replayed(); got != tail {
			t.Fatalf("round %d: replayed %d records, want the %d above the checkpoint", r, got, tail)
		}
		submit(clean, round)
		if err := clean.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, want := digest(res.Engine.Snapshot().Community()), digest(cleanEng.Snapshot().Community()); got != want {
			t.Fatalf("round %d: checkpoint+replay state differs from clean run:\n--- want ---\n%s\n--- got ---\n%s", r, want, got)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// A truncated log cannot bring the source corpus up to date: Open must
	// say so rather than replay the tail onto it.
	if oldest, _, _ := wal.OldestSeq(dir); oldest <= 1 {
		t.Fatalf("WAL still starts at seq %d after %d checkpointed rounds", oldest, rounds)
	}
	if p, err := Open(testEngine(t, gen()), dir, wcfg); err == nil {
		p.Abort()
		t.Fatalf("Open at seq 0 replayed %d records over a truncated WAL, want an error naming the gap", p.Replayed())
	} else if !strings.Contains(err.Error(), "starts at seq") {
		t.Fatalf("Open error %q does not name the gap", err)
	}
	// From the second round on, two checkpoints are retained and the log
	// holds what the older one needs: about a round and a half of records,
	// whatever the round number.
	for r := 2; r < rounds; r++ {
		if segs[r] > segs[1]+2 {
			t.Fatalf("WAL grew with the number of rounds: segments after each round %v", segs)
		}
	}
}

// TestOpenFromNumbersPastCoveredSeq: a checkpoint at seq 30 whose WAL
// segments are gone still recovers (an absent log loses no records), and
// the pipeline opened on it must number its first write 31 — in a fresh
// segment named for it — so that after a kill -9 the next recovery finds
// and replays every write acknowledged since, instead of skipping seqs
// 1-10 as already covered by the checkpoint.
func TestOpenFromNumbersPastCoveredSeq(t *testing.T) {
	const covered, tail = 30, 10
	cfg := datagen.SmallScale()
	cfg.Agents, cfg.Products = 25, 30
	gen := func() *model.Community { c, _ := datagen.Generate(cfg); return c }
	corpus := func() (*model.Community, error) { return gen(), nil }
	muts := testMutations(gen(), covered+tail)

	cleanEng := testEngine(t, gen())
	clean, err := Open(cleanEng, t.TempDir(), lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wcfg := lazyConfig()
	wcfg.CheckpointEvery = 1
	p, err := Open(testEngine(t, gen()), dir, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts[:covered] {
		if _, err := p.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil { // the final checkpoint covers seq 30
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to remove (err %v)", err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}

	res := testRecover(t, dir, corpus)
	if res.Rung != 1 || res.Seq != covered {
		t.Fatalf("recovered on rung %d at seq %d, want rung 1 at %d", res.Rung, res.Seq, covered)
	}
	if p, err = OpenFrom(res.Engine, dir, wcfg, res.Seq); err != nil {
		t.Fatal(err)
	}
	for i, m := range muts[covered:] {
		seq, err := p.Submit(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(covered + 1 + i); seq != want {
			t.Errorf("write %d acknowledged as seq %d, want %d", i, seq, want)
		}
	}
	if err := p.Abort(); err != nil { // kill -9: no publish, no checkpoint
		t.Fatal(err)
	}
	if oldest, _, err := wal.OldestSeq(dir); err != nil || oldest != covered+1 {
		t.Errorf("the log starts at seq %d (err %v), want a segment named for seq %d", oldest, err, covered+1)
	}

	res = testRecover(t, dir, corpus)
	if p, err = OpenFrom(res.Engine, dir, wcfg, res.Seq); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Replayed(); got != tail {
		t.Fatalf("replayed %d records over the seq-%d checkpoint, want the %d acknowledged after it", got, res.Seq, tail)
	}
	for _, m := range muts {
		if _, err := clean.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := digest(res.Engine.Snapshot().Community()), digest(cleanEng.Snapshot().Community()); got != want {
		t.Fatalf("recovered state differs from clean run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestConcurrentSubmitWithReaders exercises the full read/write mix
// under -race: writers stream mutations (forcing frequent swaps, each
// second one a periodic checkpoint that prunes and truncates the log
// being appended to) while readers pin snapshots and recommend and a
// caller forces extra publishes with Flush. Close then leaves a
// checkpoint that covers every acknowledged write.
func TestConcurrentSubmitWithReaders(t *testing.T) {
	comm := testCommunity(t, 25, 30)
	eng := testEngine(t, comm)
	cfg := Config{SnapshotEvery: 8, SnapshotInterval: 10 * time.Millisecond, QueueSize: 256, CheckpointEvery: 2}
	cfg.WAL.SegmentBytes = 512
	dir := t.TempDir()
	p, err := Open(eng, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	muts := testMutations(comm, 120)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(muts); i += 4 {
				if _, err := p.Submit(muts[i]); err != nil && !errors.Is(err, ErrOverloaded) {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				snap := eng.Snapshot()
				ids := snap.Community().Agents()
				if _, err := snap.Recommend(ids[(r*13+i)%len(ids)], 5, engine.Overrides{}); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := p.Flush(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	acked := p.w.Stats().NextSeq - 1
	res := testRecover(t, dir, func() (*model.Community, error) { return nil, errors.New("fell through to the corpus") })
	if res.Rung != 1 || res.Seq != acked {
		t.Fatalf("recovered on rung %d at seq %d, want rung 1 at the last acked seq %d; fallbacks: %v", res.Rung, res.Seq, acked, res.Fallbacks)
	}
	if got, want := digest(res.Engine.Snapshot().Community()), digest(eng.Snapshot().Community()); got != want {
		t.Fatalf("checkpoint written at Close differs from the state served at Close:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestFlushDeltaMatchesFromScratchPipeline is the end-to-end delta-swap
// correctness gate: after Submit + Flush publish a mutation batch via
// SwapDelta, every agent's recommendations — whether carried from the
// previous epoch's caches or recomputed — must equal a from-scratch
// core.New pipeline over the published community.
func TestFlushDeltaMatchesFromScratchPipeline(t *testing.T) {
	comm := testCommunity(t, 40, 60)
	eng := testEngine(t, comm)
	p, err := Open(eng, t.TempDir(), lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Warm every agent so the swap has state worth carrying.
	warm := eng.Snapshot()
	for _, id := range comm.Agents() {
		if _, err := warm.Recommend(id, 8, engine.Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range testMutations(comm, 25) {
		if _, err := p.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := eng.Snapshot()
	rec, err := core.New(snap.Community(), core.Options{
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range snap.Community().Agents() {
		got, err := snap.Recommend(id, 8, engine.Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := rec.Recommend(id, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("agent %s: %d recs, want %d", id, len(got), len(want))
		}
		wantScore := make(map[model.ProductID]core.Recommendation, len(want))
		for _, rc := range want {
			wantScore[rc.Product] = rc
		}
		for _, rc := range got {
			w, ok := wantScore[rc.Product]
			if !ok {
				t.Fatalf("agent %s: unexpected product %s", id, rc.Product)
			}
			if rc.Supporters != w.Supporters || rc.Score-w.Score > 1e-9 || w.Score-rc.Score > 1e-9 {
				t.Fatalf("agent %s product %s: %+v != %+v", id, rc.Product, rc, w)
			}
		}
	}
}
