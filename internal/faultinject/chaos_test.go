package faultinject

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swrec/internal/api"
	"swrec/internal/cf"
	"swrec/internal/checkpoint"
	"swrec/internal/core"
	"swrec/internal/crawler"
	"swrec/internal/engine"
	"swrec/internal/frame"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/semweb"
	"swrec/internal/taxonomy"
	"swrec/internal/wal"
)

// defaultChaosSeed is the pinned seed `make chaos` runs with; any other
// seed must still pass every invariant, it just explores different
// interleavings of the same fault space.
const defaultChaosSeed = 1117

var chaosSeed = flag.Uint64("chaos.seed", defaultChaosSeed,
	"seed for the chaos suite's fault decision streams")

// publishChaosWeb builds one site hosting a trust chain of n agents with
// ratings over a small catalog, the raw material for a faulty crawl.
func publishChaosWeb(t *testing.T, n int) (*semweb.Internet, *semweb.Site) {
	t.Helper()
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	fic, _ := tax.Lookup("Books/Fiction")
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	c.AddProduct(model.Product{ID: "urn:isbn:9780553380958", Title: "Snow Crash", Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "urn:isbn:9780521386326", Title: "Matrix Analysis", Topics: []taxonomy.Topic{alg}})
	s := semweb.NewSite("chaos.example", c)
	name := func(i int) model.AgentID { return s.AgentURL(fmt.Sprintf("a%d", i)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pids := []model.ProductID{"urn:isbn:9780553380958", "urn:isbn:9780521386326"}
	for i := 0; i < n; i++ {
		if i+1 < n {
			must(c.SetTrust(name(i), name(i+1), 0.5+float64(i%5)/10))
		}
		if j := (i * 7) % n; j != i && j != i+1 {
			must(c.SetTrust(name(i), name(j), 0.4))
		}
		must(c.SetRating(name(i), pids[i%len(pids)], float64(i%19)/9-1))
	}
	var in semweb.Internet
	in.RegisterSite(s)
	return &in, s
}

// chaosMutations fabricates n valid mutations against comm, mixing trust
// upserts/retractions, ratings, and agent upserts deterministically.
func chaosMutations(comm *model.Community, n int) []wal.Mutation {
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
			out = append(out, wal.Mutation{Op: wal.OpUpsertAgent, Agent: model.AgentID(fmt.Sprintf("http://chaos.example/new/a%d", i)), Name: fmt.Sprintf("New %d", i)})
		case 4:
			out = append(out, wal.Mutation{Op: wal.OpDeleteRating, Agent: src, Product: pids[i%len(pids)]})
		}
	}
	return out
}

// chaosDigest canonically serializes the statement state of a community
// so two states compare byte-for-byte regardless of map iteration order.
func chaosDigest(c *model.Community) string {
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
	return b.String()
}

func chaosEngine(t *testing.T, comm *model.Community) *engine.Engine {
	t.Helper()
	eng, err := engine.New(comm, core.Options{
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}, engine.Config{ComputeBudget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func lazyIngest(inj *Injector) ingest.Config {
	cfg := ingest.Config{SnapshotEvery: 1 << 30, SnapshotInterval: time.Hour}
	if inj != nil {
		cfg.WAL.WrapFile = func(f *os.File) wal.File { return inj.File(f) }
	}
	return cfg
}

// TestChaos drives the full crawl → ingest → serve pipeline under
// seed-driven transport and disk faults and asserts the resilience
// invariants: nothing deadlocks, served snapshots are never corrupted,
// and WAL replay reproduces exactly the acknowledged mutations.
func TestChaos(t *testing.T) {
	seed := *chaosSeed
	agents, muts, readers, reads := 24, 150, 8, 25
	if testing.Short() {
		agents, muts, readers, reads = 12, 60, 4, 10
	}

	// ---- Phase 1: crawl under transport faults ----
	in, site := publishChaosWeb(t, agents)
	tInj := New(Config{Seed: seed,
		ErrorRate: 0.15, StatusRate: 0.1,
		LatencyRate: 0.2, Latency: 5 * time.Millisecond})
	cr := &crawler.Crawler{
		Client:       &http.Client{Transport: tInj.Transport(in.Client().Transport)},
		Timeout:      2 * time.Second,
		RetryBackoff: time.Millisecond,
		MaxRetries:   3,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, crawlErr := cr.Crawl(ctx, site.TaxonomyURL(), site.CatalogURL(),
		[]model.AgentID{site.AgentURL("a0")})
	if ctx.Err() != nil {
		t.Fatal("crawl did not finish under faults — deadlock or unbounded retry")
	}
	if crawlErr != nil {
		// Only the required global documents may fail the crawl outright.
		t.Logf("crawl failed on global documents under faults (tolerated): %v", crawlErr)
	} else {
		// Whatever was crawled must be uncorrupted: every materialized
		// statement matches the published source exactly.
		src := site.Community()
		for _, id := range res.Community.Agents() {
			for _, st := range res.Community.TrustStatements(res.Community.Agent(id)) {
				if v, ok := src.Trust(id, st.Dst); !ok || v != st.Value {
					t.Fatalf("crawled trust %s->%s = %v, source has %v,%v", id, st.Dst, st.Value, v, ok)
				}
			}
			for _, rt := range res.Community.RatingStatements(res.Community.Agent(id)) {
				if v, ok := src.Rating(id, rt.Product); !ok || v != rt.Value {
					t.Fatalf("crawled rating %s/%s = %v, source has %v,%v", id, rt.Product, rt.Value, v, ok)
				}
			}
		}
		t.Logf("crawl: %+v breakers=%v", res.Stats, cr.BreakerStates())
	}
	t.Logf("transport faults injected: %+v", tInj.Counts())

	// ---- Phase 2: ingest under disk faults while serving reads ----
	base := site.Community()
	eng := chaosEngine(t, base)
	wInj := New(Config{Seed: seed + 1,
		WriteErrorRate: 0.004, TornWriteRate: 0.004, SyncErrorRate: 0.002})
	dir := t.TempDir()
	pipe, err := ingest.Open(eng, dir, lazyIngest(wInj))
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewWithConfig(eng, pipe, api.Config{ReadBudget: 100 * time.Millisecond})

	all := chaosMutations(base, muts)
	var acked []wal.Mutation
	var badStatus atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: submit until the WAL poisons (or all land)
		defer wg.Done()
		for _, m := range all {
			if _, err := pipe.Submit(m); err != nil {
				t.Logf("submit stopped after %d acks: %v", len(acked), err)
				return
			}
			acked = append(acked, m)
		}
	}()
	ids := base.Agents()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := string(ids[(r*reads+i)%len(ids)])
				if i%7 == 6 {
					id = "http://chaos.example/people/nobody" // exercise 404
				}
				path := "/v1/agents/" + url.PathEscape(id) + "/recommendations?n=5"
				if i%2 == 1 {
					path = "/v1/agents/" + url.PathEscape(id) + "/neighbors"
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK, http.StatusNotFound, http.StatusGatewayTimeout:
				default:
					badStatus.Add(1)
					t.Errorf("read %s returned %d: %s", path, rec.Code, rec.Body.String())
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("ingest/serve phase did not finish — deadlock")
	}
	if err := pipe.Flush(); err != nil {
		t.Logf("flush after faults (tolerated): %v", err)
	}
	t.Logf("disk faults injected: %+v; %d/%d mutations acked", wInj.Counts(), len(acked), muts)
	if seed == defaultChaosSeed && !testing.Short() && tInj.Counts().Total()+wInj.Counts().Total() == 0 {
		t.Fatal("pinned seed injected no faults — the chaos run tested nothing")
	}

	// The clean run: the acked mutations applied over the same base with
	// no faults define the one correct final state.
	cleanEng := chaosEngine(t, base)
	cleanPipe, err := ingest.Open(cleanEng, t.TempDir(), lazyIngest(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range acked {
		if _, err := cleanPipe.Submit(m); err != nil {
			t.Fatalf("clean run rejected acked mutation: %v", err)
		}
	}
	if err := cleanPipe.Flush(); err != nil {
		t.Fatal(err)
	}
	want := chaosDigest(cleanEng.Snapshot().Community())
	if err := cleanPipe.Close(); err != nil {
		t.Fatal(err)
	}

	// No corrupted snapshot: the engine that served through the faults
	// ends at exactly the clean state once every ack is applied.
	if got := chaosDigest(eng.Snapshot().Community()); got != want {
		t.Fatalf("served snapshot diverged from clean run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if err := pipe.Close(); err != nil {
		t.Logf("pipeline close after faults (tolerated): %v", err)
	}

	// ---- Phase 3: WAL replay is byte-identical to the acked set ----
	eng2 := chaosEngine(t, base)
	pipe2, err := ingest.Open(eng2, dir, lazyIngest(nil))
	if err != nil {
		t.Fatalf("reopen after faults: %v", err)
	}
	defer pipe2.Close()
	if got := pipe2.Replayed(); got != len(acked) {
		t.Fatalf("replayed %d records, want the %d acked", got, len(acked))
	}
	if got := chaosDigest(eng2.Snapshot().Community()); got != want {
		t.Fatalf("replayed state differs from clean run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if badStatus.Load() != 0 {
		t.Fatalf("%d reads returned a status outside {200,404,504}", badStatus.Load())
	}
}

// TestChaosCheckpointCrash is the kill-mid-checkpoint probe: a process
// dies while writing a compiled checkpoint (torn write on the temp file,
// plus the crash debris that shape leaves — a stale temporary and a
// corrupted in-flight file). The recovery ladder must land on the valid
// older checkpoint, and every acknowledged write must survive via WAL
// tail replay — fingerprint-equal to a run that never crashed.
func TestChaosCheckpointCrash(t *testing.T) {
	seed := *chaosSeed
	muts := 40
	if testing.Short() {
		muts = 20
	}
	_, site := publishChaosWeb(t, 16)
	base := site.Community()
	dir := t.TempDir()
	opt := core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
	engCfg := engine.Config{ComputeBudget: time.Second}
	recCfg := func() checkpoint.RecoverConfig {
		return checkpoint.RecoverConfig{
			WALDir: dir, Options: opt, Engine: engCfg,
			Corpus: func() (*model.Community, error) { return base, nil },
			Logf:   t.Logf,
		}
	}
	all := chaosMutations(base, muts)
	batchA, batchB := all[:muts/2], all[muts/2:]

	// ---- Life 1: a healthy run writes a valid checkpoint and exits ----
	ckptIngest := func(inj *Injector) ingest.Config {
		cfg := lazyIngest(nil)
		cfg.CheckpointEvery = 1
		cfg.CheckpointRetain = 4
		if inj != nil {
			cfg.CheckpointWrap = func(f *os.File) frame.File { return inj.File(f) }
		}
		return cfg
	}
	pipeA, err := ingest.Open(chaosEngine(t, base), dir, ckptIngest(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range batchA {
		if _, err := pipeA.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipeA.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := checkpoint.List(checkpoint.Dir(dir))
	if err != nil || len(infos) == 0 {
		t.Fatalf("life 1 left no checkpoint: %v, %d files", err, len(infos))
	}
	seqA := infos[0].Seq
	if seqA != uint64(len(batchA)) {
		t.Fatalf("life 1 checkpoint covers seq %d, want %d", seqA, len(batchA))
	}

	// ---- Life 2: restart warm, then die mid-checkpoint-write ----
	res, err := checkpoint.Recover(recCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != 1 {
		t.Fatalf("life 2 recovery landed on rung %d (%s), want 1", res.Rung, res.Source)
	}
	wInj := New(Config{Seed: seed, TornWriteRate: 1})
	pipeB, err := ingest.OpenFrom(res.Engine, dir, ckptIngest(wInj), res.Seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range batchB {
		if _, err := pipeB.Submit(m); err != nil {
			t.Fatalf("submit after restart: %v", err)
		}
	}
	if err := pipeB.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pipeB.Abort(); err != nil { // kill-equivalent: no graceful final checkpoint
		t.Logf("abort (tolerated): %v", err)
	}
	if wInj.Counts().Total() == 0 {
		t.Fatal("no checkpoint write was torn — the crash was never simulated")
	}
	// Crash debris the torn-write shape leaves behind: a stale write
	// temporary, plus a corrupted file at the crashed sequence (a disk
	// that lied about the rename barrier).
	seqB := seqA + uint64(len(batchB))
	badName := fmt.Sprintf("ckpt-%016x.swc", seqB)
	if err := os.WriteFile(filepath.Join(checkpoint.Dir(dir), badName+".tmp-dead"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	img := checkpoint.Capture(res.Engine.Snapshot(), seqB)
	data := checkpoint.Encode(img)
	data[len(data)/2] ^= 0x41
	if err := os.WriteFile(filepath.Join(checkpoint.Dir(dir), badName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	// ---- Life 3: the ladder lands on the valid older checkpoint ----
	res, err = checkpoint.Recover(recCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != 2 || res.Source != "checkpoint-prev" {
		t.Fatalf("landed on rung %d (%s), want rung 2 (checkpoint-prev); fallbacks: %v", res.Rung, res.Source, res.Fallbacks)
	}
	if res.Seq != seqA {
		t.Fatalf("recovered seq %d, want the older checkpoint's %d", res.Seq, seqA)
	}
	pipeC, err := ingest.OpenFrom(res.Engine, dir, lazyIngest(nil), res.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer pipeC.Close()
	if got := pipeC.Replayed(); got != len(batchB) {
		t.Fatalf("replayed %d WAL records, want the %d acked after the checkpoint", got, len(batchB))
	}

	// Acked writes survived: the state equals a run that never crashed.
	cleanEng := chaosEngine(t, base)
	cleanPipe, err := ingest.Open(cleanEng, t.TempDir(), lazyIngest(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range all {
		if _, err := cleanPipe.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := cleanPipe.Flush(); err != nil {
		t.Fatal(err)
	}
	want := chaosDigest(cleanEng.Snapshot().Community())
	if err := cleanPipe.Close(); err != nil {
		t.Fatal(err)
	}
	if got := chaosDigest(res.Engine.Snapshot().Community()); got != want {
		t.Fatalf("recovered state lost acked writes:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestChaosStrategyLadder is the strategy-ladder resilience probe: with
// the cold path made pathologically slow after an epoch swap, budgeted
// reads must keep answering from the ladder's bottom rung (degraded
// cache) or fail cleanly — statuses stay within {200,404,504}, and every
// 200 carries a strategy provenance block naming the answering rung.
func TestChaosStrategyLadder(t *testing.T) {
	reads := 40
	if testing.Short() {
		reads = 15
	}
	_, site := publishChaosWeb(t, 16)
	comm := site.Community()
	var delay atomic.Int64
	ids := comm.Agents()
	opt := core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
	opt.Candidates = func(model.AgentID) []model.AgentID {
		if d := time.Duration(delay.Load()); d > 0 {
			time.Sleep(d)
		}
		return ids
	}
	eng, err := engine.New(comm, opt, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewWithConfig(eng, nil, api.Config{ReadBudget: 10 * time.Millisecond})

	// Warm every agent at epoch 1, then swap in a cold epoch and make the
	// cold path slower than any read budget.
	for _, id := range ids {
		if _, err := eng.Snapshot().Recommend(id, 5, engine.Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Swap(comm.Clone()); err != nil {
		t.Fatal(err)
	}
	delay.Store(int64(150 * time.Millisecond))

	degraded := 0
	for i := 0; i < reads; i++ {
		id := string(ids[i%len(ids)])
		if i%9 == 8 {
			id = "http://chaos.example/people/nobody"
		}
		path := "/v1/agents/" + url.PathEscape(id) + "/recommendations?n=5"
		if i%2 == 1 {
			path = "/v1/agents/" + url.PathEscape(id) + "/neighbors"
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusNotFound, http.StatusGatewayTimeout:
		case http.StatusOK:
			var out struct {
				Strategy *struct {
					Procedure string `json:"procedure"`
					Degraded  bool   `json:"degraded"`
				} `json:"strategy"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("read %s: bad body: %v", path, err)
			}
			if out.Strategy == nil || out.Strategy.Procedure == "" {
				t.Fatalf("read %s: 200 without a strategy block: %s", path, rec.Body.String())
			}
			if out.Strategy.Degraded {
				if out.Strategy.Procedure != "degraded-cache" {
					t.Fatalf("read %s: degraded answer from rung %s", path, out.Strategy.Procedure)
				}
				degraded++
			}
		default:
			t.Fatalf("read %s returned %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	// With every cache warmed at the previous epoch, the slow cold path
	// must have pushed at least one answer down to the degraded rung.
	if degraded == 0 {
		t.Fatal("no read landed on the degraded-cache rung — the slow path was never exercised")
	}
}
