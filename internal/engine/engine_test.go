package engine

import (
	"bytes"
	"context"
	"errors"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
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

func counter(name string) int64 {
	if v, ok := expvar.Get("swrec_engine").(*expvar.Map).Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

func TestRankedPeersCached(t *testing.T) {
	comm := testCommunity(t, 40, 60)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	id := comm.Agents()[0]

	misses := counter("peers_miss")
	first, err := snap.RankedPeers(id, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if counter("peers_miss") != misses+1 {
		t.Fatal("first lookup did not count as a miss")
	}
	hits := counter("peers_hit")
	second, err := snap.RankedPeers(id, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if counter("peers_hit") != hits+1 {
		t.Fatal("second lookup did not hit the cache")
	}
	if len(first) != len(second) || (len(first) > 0 && &first[0] != &second[0]) {
		t.Fatal("cache returned a different neighborhood")
	}

	// A pipeline override warms its own entry, not the default one.
	alpha := 0.9
	if _, err := snap.RankedPeers(id, Overrides{Alpha: &alpha}); err != nil {
		t.Fatal(err)
	}
	if got := counter("peers_miss"); got != misses+2 {
		t.Fatalf("override shared the default cache entry (misses %d)", got-misses)
	}
}

func TestRecommendMatchesDirectPipeline(t *testing.T) {
	comm := testCommunity(t, 40, 60)
	opt := testOptions()
	e, err := New(comm, opt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.New(comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range comm.Agents()[:10] {
		want, err := rec.Recommend(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Snapshot().Recommend(id, 0, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("agent %s: %d recs, want %d", id, len(got), len(want))
		}
		// Vote sums run over map-backed sparse vectors, so scores may
		// differ in the last ULP between pipeline instances; compare as
		// a score map with tolerance rather than positionally.
		wantScore := make(map[string]core.Recommendation, len(want))
		for _, rc := range want {
			wantScore[string(rc.Product)] = rc
		}
		for _, rc := range got {
			w, ok := wantScore[string(rc.Product)]
			if !ok {
				t.Fatalf("agent %s: unexpected product %s", id, rc.Product)
			}
			if rc.Supporters != w.Supporters || rc.Score-w.Score > 1e-9 || w.Score-rc.Score > 1e-9 {
				t.Fatalf("agent %s product %s: %+v != %+v", id, rc.Product, rc, w)
			}
		}
	}
}

func TestSingleflightCollapsesConcurrentComputations(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	var calls atomic.Int64
	release := make(chan struct{})
	opt := testOptions()
	// A blocking candidate pre-filter stands in for an expensive trust
	// metric: every stage-1 run must pass through it.
	opt.Candidates = func(active model.AgentID) []model.AgentID {
		calls.Add(1)
		<-release
		return comm.Agents()
	}
	e, err := New(comm, opt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	id := comm.Agents()[0]

	const clients = 8
	var started, done sync.WaitGroup
	for i := 0; i < clients; i++ {
		started.Add(1)
		done.Add(1)
		go func() {
			started.Done()
			defer done.Done()
			if _, err := snap.RankedPeers(id, Overrides{}); err != nil {
				t.Error(err)
			}
		}()
	}
	started.Wait()
	time.Sleep(100 * time.Millisecond) // let every client reach the flight
	close(release)
	done.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("stage 1 ran %d times for %d concurrent clients", got, clients)
	}
}

func TestSwapPublishesNewEpochAndKeepsOldSnapshot(t *testing.T) {
	comm := testCommunity(t, 30, 40)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	old := e.Snapshot()
	if old.Epoch() != 1 {
		t.Fatalf("initial epoch = %d", old.Epoch())
	}

	comm2 := testCommunity(t, 50, 70)
	snap2, err := e.Swap(comm2)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Epoch() != 2 || e.Epoch() != 2 {
		t.Fatalf("epoch after swap = %d / %d", snap2.Epoch(), e.Epoch())
	}
	if e.Snapshot().Community() != comm2 {
		t.Fatal("engine does not serve the swapped community")
	}
	// The pinned pre-swap snapshot still answers from the old view.
	if old.Community() != comm || old.Community().NumAgents() != 30 {
		t.Fatal("old snapshot lost its community")
	}
	if _, err := old.RankedPeers(comm.Agents()[0], Overrides{}); err != nil {
		t.Fatalf("old snapshot stopped serving: %v", err)
	}

	// A community incompatible with the options must not be installed.
	bare := model.NewCommunity(nil) // taxonomy representation needs a taxonomy
	if _, err := e.Swap(bare); err == nil {
		t.Fatal("incompatible swap accepted")
	}
	if e.Snapshot() != snap2 {
		t.Fatal("failed swap displaced the current snapshot")
	}
}

func TestWarmupPrecomputesAllAgents(t *testing.T) {
	comm := testCommunity(t, 35, 50)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Warmup(4)
	if res.Agents != comm.NumAgents() {
		t.Fatalf("warmed %d agents, want %d", res.Agents, comm.NumAgents())
	}
	snap := e.Snapshot()
	if got := snap.peers.len(); got != comm.NumAgents() {
		t.Fatalf("peer cache holds %d entries, want %d", got, comm.NumAgents())
	}
	hits := counter("peers_hit")
	for _, id := range comm.Agents() {
		if _, err := snap.RankedPeers(id, Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter("peers_hit") - hits; got != int64(comm.NumAgents()) {
		t.Fatalf("post-warmup lookups hit %d times, want %d", got, comm.NumAgents())
	}

	// swrecd warms last on every boot path; over a cache a checkpoint
	// restored and no replay evicted, that pass computes nothing.
	restored, err := NewRestored(Restore{
		Epoch:     snap.Epoch(),
		Community: comm,
		Matrix:    snap.Recommender().Filter().Matrix(),
		Peers:     snap.ExportPeers(),
	}, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	misses := counter("peers_miss")
	if res := restored.Warmup(4); res.Agents != comm.NumAgents() || counter("peers_miss") != misses {
		t.Fatalf("warm-up over a restored cache: %d agents, %d neighborhoods recomputed", res.Agents, counter("peers_miss")-misses)
	}
}

// TestRestoredEntryDecodesOnceOnFirstTouch: restoring a cache, and the
// warm-up swrecd runs over it, decode none of its entries; many
// concurrent first readers of one entry decode it exactly once and all
// read the one ranking (run under -race).
func TestRestoredEntryDecodesOnceOnFirstTouch(t *testing.T) {
	comm := testCommunity(t, 35, 50)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(4)
	snap := e.Snapshot()
	var decodes atomic.Int64
	entries := snap.ExportPeers()
	for i := range entries {
		ranks := entries[i].Ranks
		entries[i].Ranks = func() []core.PeerRank { decodes.Add(1); return ranks() }
	}
	restored, err := NewRestored(Restore{
		Epoch:     snap.Epoch(),
		Community: comm,
		Matrix:    snap.Recommender().Filter().Matrix(),
		Peers:     entries,
	}, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	restored.Warmup(4)
	if n := decodes.Load(); n != 0 {
		t.Fatalf("restore and warm-up decoded %d entries, want none", n)
	}
	id := comm.Agents()[3]
	want, err := snap.RankedPeers(id, Overrides{})
	if err != nil || len(want) == 0 {
		t.Fatalf("fixture: %d peers, %v", len(want), err)
	}
	rs := restored.Snapshot()
	got := make([][]core.PeerRank, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = rs.RankedPeers(id, Overrides{})
		}()
	}
	wg.Wait()
	if n := decodes.Load(); n != 1 {
		t.Fatalf("%d concurrent first reads decoded %d times, want once", len(got), n)
	}
	for i, g := range got {
		if len(g) != len(want) || &g[0] != &got[0][0] {
			t.Fatalf("reader %d got a ranking of %d peers at another address", i, len(g))
		}
		for j := range g {
			if g[j] != want[j] {
				t.Fatalf("reader %d peer %d: %+v, want %+v", i, j, g[j], want[j])
			}
		}
	}
}

func TestRecommenderForSharesFilterAcrossCompatibleVariants(t *testing.T) {
	comm := testCommunity(t, 25, 40)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()

	base, _ := snap.RecommenderFor(Overrides{})
	alpha := 0.8
	blended, err := snap.RecommenderFor(Overrides{Alpha: &alpha})
	if err != nil {
		t.Fatal(err)
	}
	if blended == base {
		t.Fatal("alpha override returned the default recommender")
	}
	if blended.Filter() != base.Filter() {
		t.Fatal("alpha override rebuilt the similarity filter")
	}

	bad := 7.0
	if _, err := snap.RecommenderFor(Overrides{Alpha: &bad}); err == nil {
		t.Fatal("invalid alpha accepted")
	}
}

// TestMeasureVariantSharesMatrix: a measure override is a view over the
// snapshot's one compiled matrix — whatever α rides along, nothing is
// compiled or pinned per variant.
func TestMeasureVariantSharesMatrix(t *testing.T) {
	comm := testCommunity(t, 25, 40)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	mat := snap.Recommender().Filter().Matrix()
	if mat == nil {
		t.Fatal("the default filter is not compiled")
	}
	pearson := cf.Pearson
	if snap.Options().CF.Measure == pearson {
		t.Fatal("the test needs a non-default measure")
	}
	id := comm.Agents()[0]
	for _, alpha := range []float64{0.2, 0.5, 0.8} {
		rec, err := snap.RecommenderFor(Overrides{Measure: &pearson, Alpha: &alpha})
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Filter().Options().Measure; got != pearson {
			t.Fatalf("alpha %v: variant measures with %v", alpha, got)
		}
		if _, err := snap.RankedPeers(id, Overrides{Measure: &pearson, Alpha: &alpha}); err != nil {
			t.Fatal(err)
		}
		if rec.Filter().Matrix() != mat {
			t.Fatalf("alpha %v: the measure override compiled its own matrix", alpha)
		}
	}
}

// TestProfileIsTheFilterRow: the snapshot's profile of an agent is the
// row its filter compares — equal, entry for entry, to the Eq. 3
// reference — served without building anything; an engine comparing
// product vectors builds the default Eq. 3 profile on demand instead.
func TestProfileIsTheFilterRow(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	gen := profile.New(comm.Taxonomy())
	sameAsReference := func(row *profmat.Row, id model.AgentID) {
		t.Helper()
		want, err := gen.ProfileCtx(context.Background(), comm.Agent(id), comm)
		if err != nil {
			t.Fatal(err)
		}
		if row.NNZ() != want.NNZ() || row.NNZ() == 0 {
			t.Fatalf("%s: %d entries, reference has %d", id, row.NNZ(), want.NNZ())
		}
		for i, k := range want.Keys {
			if row.Keys[i] != k || row.Vals[i] != want.Vals[i] {
				t.Fatalf("%s: entry %d = (%d, %v), reference (%d, %v)", id, i, row.Keys[i], row.Vals[i], k, want.Vals[i])
			}
		}
	}
	id := comm.Agents()[0]
	hits, misses := counter("profile_hit"), counter("profile_miss")
	p1, err := snap.Profile(id)
	if err != nil {
		t.Fatal(err)
	}
	sameAsReference(p1, id)
	if p1 != snap.Recommender().Filter().Matrix().Row(comm.Agent(id).Ord()) {
		t.Fatal("the profile is a copy, not the filter's row")
	}
	if counter("profile_hit") != hits+1 || counter("profile_miss") != misses {
		t.Fatal("a matrix row must count one profile_hit and no profile_miss")
	}
	if _, err := snap.Profile("http://nope/x"); !errors.Is(err, core.ErrUnknownAgent) {
		t.Fatalf("unknown agent error = %v", err)
	}

	byProduct, err := New(comm, core.Options{CF: cf.Options{Representation: cf.Product}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = counter("profile_hit"), counter("profile_miss")
	p2, err := byProduct.Snapshot().Profile(id)
	if err != nil {
		t.Fatal(err)
	}
	sameAsReference(p2, id)
	if counter("profile_hit") != hits || counter("profile_miss") != misses+1 {
		t.Fatal("an on-demand build must count one profile_miss and no profile_hit")
	}

	bare := model.NewCommunity(nil)
	bare.AddAgent("http://x/a")
	e2, err := New(bare, core.Options{CF: cf.Options{Representation: cf.Product}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Snapshot().Profile("http://x/a"); !errors.Is(err, ErrNoTaxonomy) {
		t.Fatalf("no-taxonomy error = %v", err)
	}
}

// TestConcurrentRecommendDuringSwap hammers the engine from many
// goroutines while snapshots are being swapped underneath them; run with
// -race. Every request must succeed against whichever epoch it pinned.
// TestWarmupDuringSwap races full Warmup passes against Swap publishing
// new epochs and concurrent readers. Warmup pins the snapshot current at
// its start, so a pass that overlaps a swap must complete against its
// pinned epoch without error and without touching the new one (caught by
// -race if any warmup write escaped into a swapped-in snapshot).
func TestWarmupDuringSwap(t *testing.T) {
	comm := testCommunity(t, 30, 40)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)

	// Continuous warmup passes.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := e.Warmup(2)
				if res.Agents == 0 {
					errs <- fmt.Errorf("warmup touched no agents")
					return
				}
			}
		}()
	}
	// Concurrent readers on whatever epoch is current.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := e.Snapshot()
				ids := snap.Community().Agents()
				if _, err := snap.Recommend(ids[(seed+i)%len(ids)], 5, Overrides{}); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	// Swaps drive epoch turnover under the warmers' feet.
	for i := 0; i < 6; i++ {
		if _, err := e.Swap(testCommunity(t, 30+i, 40)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.Snapshot().Epoch(); got < 7 {
		t.Fatalf("epoch = %d after 6 swaps, want >= 7", got)
	}
}

func TestConcurrentRecommendDuringSwap(t *testing.T) {
	comm := testCommunity(t, 30, 40)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				snap := e.Snapshot()
				ids := snap.Community().Agents()
				id := ids[(seed+i)%len(ids)]
				if _, err := snap.Recommend(id, 5, Overrides{}); err != nil {
					errs <- fmt.Errorf("epoch %d agent %s: %w", snap.Epoch(), id, err)
					return
				}
				if _, err := snap.Profile(id); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Swap(testCommunity(t, 30+i, 40)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPipeKeySpelling: the checkpoint's spelling of a pipe key is
// PipeSize bytes that give back the key, every field of it, and a
// spelling ExportPeers never writes restores as nothing.
func TestPipeKeySpelling(t *testing.T) {
	keys := []pipeKey{
		{},
		{hasMetric: true, metric: core.NoTrust},
		{hasAlpha: true, alpha: 0.25},
		{hasAlpha: true}, // alpha 0, present
		{hasMeasure: true, measure: cf.Pearson},
		{rung: rungWiden},
		{rung: rungGen, hasAlpha: true, alpha: 1},
		{hasMetric: true, metric: core.PathTrust, hasAlpha: true, alpha: 0.5, hasMeasure: true, measure: cf.Cosine, rung: rungWiden},
	}
	spelled := map[[PipeSize]byte]bool{}
	for _, k := range keys {
		b := k.spell()
		if got, ok := pipeKeyOf(string(b[:])); !ok || got != k {
			t.Fatalf("%+v spells as %x, which reads back as %+v (ok %v)", k, b, got, ok)
		}
		if spelled[b] {
			t.Fatalf("%+v spells as another key does: %x", k, b)
		}
		spelled[b] = true
	}
	full := keys[len(keys)-1].spell()
	for what, spoil := range map[string]func(b []byte) []byte{
		"short":                    func(b []byte) []byte { return b[:PipeSize-1] },
		"long":                     func(b []byte) []byte { return append(b, 0) },
		"unknown flag":             func(b []byte) []byte { b[0] |= 8; return b },
		"unknown rung":             func(b []byte) []byte { b[1] = 'x'; return b },
		"an absent field not zero": func(b []byte) []byte { b[0] &^= 2; return b },
	} {
		if k, ok := pipeKeyOf(string(spoil(bytes.Clone(full[:])))); ok {
			t.Fatalf("%s: read back as %+v", what, k)
		}
	}
}
