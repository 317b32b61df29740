package checkpoint_test

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"swrec/internal/api"
	"swrec/internal/cf"
	"swrec/internal/checkpoint"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
	"swrec/internal/wal"
)

func rOptions() core.Options {
	return core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
}

func rConfig() engine.Config {
	return engine.Config{ComputeBudget: time.Second}
}

func rIngest() ingest.Config {
	return ingest.Config{SnapshotEvery: 1 << 30, SnapshotInterval: time.Hour}
}

// ckptIngest is rIngest with a checkpoint per published snapshot.
// segmentBytes, when positive, shrinks the WAL segments to a few records
// each, so that checkpointing truncates the log.
func ckptIngest(segmentBytes int64) ingest.Config {
	cfg := rIngest()
	cfg.CheckpointEvery = 1
	cfg.CheckpointRetain = 4
	cfg.WAL.SegmentBytes = segmentBytes
	return cfg
}

// rCommunity mirrors the chaos suite's trust web: a chain with cross
// edges and ratings over a two-book Fig1 catalog.
func rCommunity(t testing.TB, n int) *model.Community {
	t.Helper()
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	fic, _ := tax.Lookup("Books/Fiction")
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	c.AddProduct(model.Product{ID: "urn:isbn:9780553380958", Title: "Snow Crash", Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "urn:isbn:9780521386326", Title: "Matrix Analysis", Topics: []taxonomy.Topic{alg}})
	pids := []model.ProductID{"urn:isbn:9780553380958", "urn:isbn:9780521386326"}
	name := func(i int) model.AgentID { return model.AgentID(fmt.Sprintf("http://rec.example/people/a%d", i)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		c.AddAgent(name(i)).Name = fmt.Sprintf("Agent %d", i)
	}
	for i := 0; i < n; i++ {
		if i+1 < n {
			must(c.SetTrust(name(i), name(i+1), 0.5+float64(i%5)/10))
		}
		if j := (i * 7) % n; j != i && j != i+1 {
			must(c.SetTrust(name(i), name(j), 0.4))
		}
		must(c.SetRating(name(i), pids[i%len(pids)], float64(i%19)/9-1))
	}
	return c
}

// rMutations fabricates n valid mutations, mixing trust upserts and
// retractions, ratings, and new agents deterministically.
func rMutations(comm *model.Community, n int) []wal.Mutation {
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
			out = append(out, wal.Mutation{Op: wal.OpUpsertAgent, Agent: model.AgentID(fmt.Sprintf("http://rec.example/new/a%d", i)), Name: fmt.Sprintf("New %d", i)})
		case 4:
			out = append(out, wal.Mutation{Op: wal.OpDeleteRating, Agent: src, Product: pids[i%len(pids)]})
		}
	}
	return out
}

// rDigest canonically serializes the statement state of a community.
func rDigest(c *model.Community) string {
	var b strings.Builder
	ids := append([]model.AgentID(nil), c.Agents()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := c.Agent(id)
		fmt.Fprintf(&b, "agent %s name=%q\n", id, a.Name)
		for _, st := range a.TrustedPeers() {
			fmt.Fprintf(&b, "  trust %s %.17g\n", st.Dst, st.Value)
		}
		for _, rt := range a.RatedProducts() {
			fmt.Fprintf(&b, "  rating %s %.17g\n", rt.Product, rt.Value)
		}
	}
	return b.String()
}

// rRecs fingerprints the serving surface: every agent's exact
// recommendations.
func rRecs(t testing.TB, snap *engine.Snapshot) string {
	t.Helper()
	var b strings.Builder
	ids := append([]model.AgentID(nil), snap.Community().Agents()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		recs, err := snap.Recommend(id, 5, engine.Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:", id)
		for _, r := range recs {
			fmt.Fprintf(&b, " %s=%.17g/%d", r.Product, r.Score, r.Supporters)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// buildDurableState drives a real pipeline over dir under cfg: three
// epochs of churn, then warm caches before Close (and its final
// checkpoint, when cfg writes them). Returns the base corpus and every
// acked mutation.
func buildDurableState(t *testing.T, dir string, cfg ingest.Config) (*model.Community, []wal.Mutation) {
	t.Helper()
	const rounds, perRound = 3, 10
	base := rCommunity(t, 12)
	eng, err := engine.New(base.Clone(), rOptions(), rConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.Open(eng, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := rMutations(base, rounds*perRound)
	for r := 0; r < rounds; r++ {
		for _, m := range all[r*perRound : (r+1)*perRound] {
			if _, err := pipe.Submit(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := pipe.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Snapshot()
	for _, id := range snap.Community().Agents() {
		if _, err := snap.Recommend(id, 5, engine.Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	return base, all
}

// cleanEngine applies every acked mutation over a pristine base with no
// faults and no restarts — the one correct final state under opt.
func cleanEngine(t *testing.T, base *model.Community, muts []wal.Mutation, opt core.Options) *engine.Engine {
	t.Helper()
	eng, err := engine.New(base.Clone(), opt, rConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.Open(eng, t.TempDir(), rIngest())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if _, err := pipe.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func recoverCfg(t *testing.T, dir string, base *model.Community) checkpoint.RecoverConfig {
	t.Helper()
	return checkpoint.RecoverConfig{
		WALDir:  dir,
		Options: rOptions(),
		Engine:  rConfig(),
		Corpus:  func() (*model.Community, error) { return base.Clone(), nil },
		Logf:    t.Logf,
	}
}

// finishRecovery opens ingest at the recovered sequence (replaying the
// unapplied WAL tail) and asserts the final state is fingerprint-equal
// to the clean rebuild under the options the recovered engine serves with.
func finishRecovery(t *testing.T, dir string, res *checkpoint.Result, base *model.Community, all []wal.Mutation) {
	t.Helper()
	pipe, err := ingest.OpenFrom(res.Engine, dir, rIngest(), res.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	if got, want := pipe.Replayed(), len(all)-int(res.Seq); got != want {
		t.Fatalf("replayed %d WAL records after seq %d, want %d", got, res.Seq, want)
	}
	clean := cleanEngine(t, base, all, res.Engine.Snapshot().Options())
	if got, want := rDigest(res.Engine.Snapshot().Community()), rDigest(clean.Snapshot().Community()); got != want {
		t.Fatalf("recovered state diverged from clean rebuild:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if got, want := rRecs(t, res.Engine.Snapshot()), rRecs(t, clean.Snapshot()); got != want {
		t.Fatalf("recovered recommendations diverged from clean rebuild:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestRestoredMatchesFromScratch is the tentpole acceptance test: after
// three epochs of churn, a restart lands on rung 1, replays nothing,
// serves its first request from restored caches, and is fingerprint-
// equal to a from-scratch build.
func TestRestoredMatchesFromScratch(t *testing.T) {
	dir := t.TempDir()
	base, all := buildDurableState(t, dir, ckptIngest(0))

	res, err := checkpoint.Recover(recoverCfg(t, dir, base))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != 1 || res.Source != "checkpoint" {
		t.Fatalf("landed on rung %d (%s), want rung 1 (checkpoint); fallbacks: %v", res.Rung, res.Source, res.Fallbacks)
	}
	if res.Seq != uint64(len(all)) {
		t.Fatalf("recovered seq %d, want %d (the final checkpoint covers every ack)", res.Seq, len(all))
	}

	// Warm from the first request: the restored neighborhood cache must
	// answer without recomputing Appleseed or Eq. 3.
	snap := res.Engine.Snapshot()
	ids := snap.Community().Agents()
	if _, ok := snap.CachedPeers(ids[0], engine.Overrides{}); !ok {
		t.Fatal("first request after restore is cold — neighborhood cache not restored")
	}
	finishRecovery(t, dir, res, base, all)

	// The ladder's outcome is observable.
	m, ok := expvar.Get("swrec_recovery").(*expvar.Map)
	if !ok {
		t.Fatal("swrec_recovery expvar map not published")
	}
	if g, ok := m.Get("last_rung").(*expvar.Int); !ok || g.Value() != 1 {
		t.Fatalf("swrec_recovery last_rung = %v, want 1", m.Get("last_rung"))
	}
	// Where the restart went: read, decode and restore of the served file.
	var phases int64
	for _, name := range []string{"last_read_us", "last_decode_us", "last_restore_us"} {
		g, ok := m.Get(name).(*expvar.Int)
		if !ok || g.Value() < 0 {
			t.Fatalf("swrec_recovery %s = %v, want a gauge", name, m.Get(name))
		}
		phases += g.Value()
	}
	if load := m.Get("last_load_ms").(*expvar.Int).Value(); phases > (load+1)*1000 {
		t.Fatalf("the served rung's phases sum to %d µs, more than the %d ms ladder walk", phases, load)
	}
	if m.Get("last_decode_us").(*expvar.Int).Value() == 0 {
		t.Fatal("a rung-1 recovery spent no time decoding")
	}
	if m.Get("recoveries") == nil {
		t.Fatal("swrec_recovery recoveries counter missing")
	}
}

// TestRecoverySmoke is the make-check gate: corrupt one section of the
// newest checkpoint and recovery must land on the previous retained
// checkpoint (rung 2) — never fall through to a corpus rebuild — then
// replay the WAL tail to the exact clean state.
func TestRecoverySmoke(t *testing.T) {
	dir := t.TempDir()
	base, all := buildDurableState(t, dir, ckptIngest(0))

	infos, err := checkpoint.List(checkpoint.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 2 {
		t.Fatalf("fixture wrote %d checkpoints, want at least 2 retained", len(infos))
	}
	data, err := os.ReadFile(infos[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x41
	if err := os.WriteFile(infos[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := checkpoint.Recover(recoverCfg(t, dir, base))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung >= 3 {
		t.Fatalf("recovery fell through to rung %d (%s) with a valid retained checkpoint on disk; fallbacks: %v",
			res.Rung, res.Source, res.Fallbacks)
	}
	if res.Rung != 2 || res.Source != "checkpoint-prev" {
		t.Fatalf("landed on rung %d (%s), want rung 2 (checkpoint-prev)", res.Rung, res.Source)
	}
	if res.Seq != infos[1].Seq {
		t.Fatalf("recovered seq %d, want the previous checkpoint's %d", res.Seq, infos[1].Seq)
	}
	finishRecovery(t, dir, res, base, all)
}

// TestRecoveryLadderFaults drives the remaining fault classes through
// the full ladder: a rung is taken only when the retained WAL covers
// everything after it, it then ends fingerprint-equal after replay, and
// the one state nothing can rebuild — no usable checkpoint over a
// truncated WAL — is an error, never a served snapshot.
func TestRecoveryLadderFaults(t *testing.T) {
	// wantGapError asserts Recover refuses dir, naming the first WAL
	// sequence still retained.
	wantGapError := func(t *testing.T, dir string, base *model.Community) {
		t.Helper()
		oldest, ok, err := wal.OldestSeq(dir)
		if err != nil || !ok || oldest <= 1 {
			t.Fatalf("fixture WAL was not truncated: oldest seq %d ok=%v err=%v", oldest, ok, err)
		}
		res, err := checkpoint.Recover(recoverCfg(t, dir, base))
		if err == nil {
			t.Fatalf("recovery served rung %d (%s) at seq %d over a WAL that starts at seq %d", res.Rung, res.Source, res.Seq, oldest)
		}
		if want := fmt.Sprintf("seq %d", oldest); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the first retained WAL record (%s)", err, want)
		}
	}

	t.Run("all checkpoints corrupted over a truncated WAL is an error", func(t *testing.T) {
		dir := t.TempDir()
		base, _ := buildDurableState(t, dir, ckptIngest(256))
		infos, err := checkpoint.List(checkpoint.Dir(dir))
		if err != nil || len(infos) == 0 {
			t.Fatalf("fixture checkpoints: %v, %d files", err, len(infos))
		}
		for _, info := range infos {
			data, err := os.ReadFile(info.Path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x41
			if err := os.WriteFile(info.Path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantGapError(t, dir, base)
	})

	// What an older build's directory looks like to this one: a truncated
	// WAL, no compiled checkpoints, and the corpus snapshot and marker
	// that build would have restarted from. They are neither read nor
	// removed.
	t.Run("missing checkpoint dir over a truncated WAL is an error", func(t *testing.T) {
		dir := t.TempDir()
		base, _ := buildDurableState(t, dir, ckptIngest(256))
		if err := os.RemoveAll(checkpoint.Dir(dir)); err != nil {
			t.Fatal(err)
		}
		stale := []string{filepath.Join(dir, "snapshot", "agents.nt"), filepath.Join(dir, "CHECKPOINT")}
		for _, path := range stale {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte("epoch=3 seq=20\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantGapError(t, dir, base)
		for _, path := range stale {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("recovery touched a file it does not own: %v", err)
			}
		}
	})

	// The checkpoints are the only copy of records 1..N-1, and they were
	// compiled under rOptions: restarting with another signature must keep
	// their statements and recompile, not refuse to start for good.
	t.Run("changed options over a truncated WAL recompile the checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		base, all := buildDurableState(t, dir, ckptIngest(256))
		if oldest, ok, err := wal.OldestSeq(dir); err != nil || !ok || oldest <= 1 {
			t.Fatalf("fixture WAL was not truncated: oldest seq %d ok=%v err=%v", oldest, ok, err)
		}
		cfg := recoverCfg(t, dir, base)
		cfg.Options.MaxNeighbors = 2
		res, err := checkpoint.Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rung != 1 || res.Source != "checkpoint-recompiled" || res.Seq != uint64(len(all)) {
			t.Fatalf("landed on rung %d (%s) seq %d, want rung 1 (checkpoint-recompiled) seq %d; fallbacks: %v",
				res.Rung, res.Source, res.Seq, len(all), res.Fallbacks)
		}
		if got := res.Engine.Snapshot().Options().MaxNeighbors; got != 2 {
			t.Fatalf("recovered engine serves MaxNeighbors=%d, want the restart's 2", got)
		}
		if rRecs(t, res.Engine.Snapshot()) == rRecs(t, cleanEngine(t, base, all, rOptions()).Snapshot()) {
			t.Fatal("fixture cannot tell the two option sets apart")
		}
		finishRecovery(t, dir, res, base, all)
	})

	t.Run("nothing durable but the WAL falls to corpus", func(t *testing.T) {
		dir := t.TempDir()
		cfg := rIngest()
		cfg.WAL.SegmentBytes = 256 // same many-segment log, never checkpointed, so never truncated
		base, all := buildDurableState(t, dir, cfg)
		res, err := checkpoint.Recover(recoverCfg(t, dir, base))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rung != 3 || res.Source != "corpus" {
			t.Fatalf("landed on rung %d (%s), want rung 3 (corpus); fallbacks: %v", res.Rung, res.Source, res.Fallbacks)
		}
		if res.Seq != 0 {
			t.Fatalf("rung 3 recovered seq %d, want 0 (full WAL replay)", res.Seq)
		}
		finishRecovery(t, dir, res, base, all)
	})
}

// TestZeroTailRestartServesWarmOverHTTP: a clean shutdown leaves no WAL
// tail, so the restart publishes nothing and its restored neighborhoods
// answer /neighbors and /recommendations — decoded on that first read,
// none recomputed (no peers_miss) — with the bytes an engine compiled
// from scratch over the same statements serves; so do the lower rungs
// pinned, which widen or re-rank a restored ranking by the ordinals it
// carries.
func TestZeroTailRestartServesWarmOverHTTP(t *testing.T) {
	dir := t.TempDir()
	base := rCommunity(t, 12)
	eng, err := engine.New(base.Clone(), rOptions(), rConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ingest.Open(eng, dir, ckptIngest(0))
	if err != nil {
		t.Fatal(err)
	}
	muts := rMutations(base, 10)
	for _, m := range muts {
		if _, err := pipe.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, id := range eng.Snapshot().Community().Agents() {
		at := "/v1/agents/" + url.PathEscape(string(id))
		for _, pin := range []string{"", "&strategy=trust-hop-widening", "&strategy=taxonomy-ancestor"} {
			urls = append(urls, at+"/neighbors?n=0"+pin, at+"/recommendations?n=5"+pin)
		}
	}
	get := func(srv http.Handler) []string {
		t.Helper()
		bodies := make([]string, len(urls))
		for i, u := range urls {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", u, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.String()
		}
		return bodies
	}
	// Warm every neighborhood the ladder reads; each pinned rung must
	// answer some agents, or the comparison below would not cover it.
	answered := map[string]int{}
	for i, body := range get(api.New(eng)) {
		if _, pin, ok := strings.Cut(urls[i], "strategy="); ok && strings.Contains(body, `"outcome": "ok"`) {
			answered[pin]++
		}
	}
	if answered["trust-hop-widening"] == 0 || answered["taxonomy-ancestor"] == 0 {
		t.Fatalf("fixture: pinned rungs answered %v", answered)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := checkpoint.Recover(recoverCfg(t, dir, base))
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := ingest.OpenFrom(res.Engine, dir, rIngest(), res.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if res.Rung != 1 || reopened.Replayed() != 0 {
		t.Fatalf("rung %d, %d records replayed; want rung 1 and no tail", res.Rung, reopened.Replayed())
	}
	misses := peersMisses()
	warm := get(api.New(res.Engine))
	if n := peersMisses() - misses; n != 0 {
		t.Fatalf("the restart recomputed %d neighborhoods, want none", n)
	}

	clean := cleanEngine(t, base, muts, rOptions()).Snapshot().Community()
	scratch, err := engine.NewRestored(engine.Restore{Epoch: res.Engine.Epoch(), Community: clean}, rOptions(), rConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range get(api.New(scratch)) {
		if warm[i] != want {
			t.Fatalf("GET %s after restart:\n%s\nfrom scratch:\n%s", urls[i], warm[i], want)
		}
	}
}

// TestRetiredTopicIndexServesTopicPagesFromScratch: a v1 file that still
// carries the topic index recovers, and the recompiled engine's /v1/topics
// pages — every topic, root to leaf, under a spread of offset/limit —
// are byte-equal to those of an engine built from scratch: the index the
// file holds is never read, and the one derived in its place answers
// the same.
func TestRetiredTopicIndexServesTopicPagesFromScratch(t *testing.T) {
	comm, _ := datagen.Generate(datagen.SmallScale())
	src, err := engine.New(comm, rOptions(), rConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := checkpoint.WithRetiredTopicIndex(t, checkpoint.Encode(checkpoint.Capture(src.Snapshot(), 5)), comm)
	dir := t.TempDir()
	if err := os.MkdirAll(checkpoint.Dir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(checkpoint.Dir(dir), fmt.Sprintf("ckpt-%016x.swc", 5)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := checkpoint.Recover(recoverCfg(t, dir, comm))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != 1 || res.Source != "checkpoint-recompiled" {
		t.Fatalf("rung %d (%s), want rung 1 (checkpoint-recompiled); fallbacks %v", res.Rung, res.Source, res.Fallbacks)
	}
	restored := res.Engine
	scratch, err := engine.New(comm.Clone(), rOptions(), rConfig())
	if err != nil {
		t.Fatal(err)
	}
	tax := comm.Taxonomy()
	served, fresh := api.New(restored), api.New(scratch)
	paged := 0
	for _, d := range tax.Topics() {
		at := "/v1/topics/" + url.PathEscape(tax.QualifiedName(d))
		for _, q := range []string{"", "?limit=0", "?limit=1", "?offset=2&limit=3", "?offset=17&limit=50", "?offset=100000"} {
			var bodies [2]string
			for i, srv := range []http.Handler{served, fresh} {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, at+q, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s: %d %s", at+q, rec.Code, rec.Body)
				}
				bodies[i] = rec.Body.String()
			}
			if bodies[0] != bodies[1] {
				t.Fatalf("GET %s after restore:\n%s\nfrom scratch:\n%s", at+q, bodies[0], bodies[1])
			}
			if q == "?offset=2&limit=3" && strings.Count(bodies[0], `"id"`) == 3 {
				paged++
			}
		}
	}
	if paged == 0 || paged == len(tax.Topics()) {
		t.Fatalf("fixture: %d of %d topics fill a middle page", paged, len(tax.Topics()))
	}
}

func peersMisses() int64 {
	v, _ := expvar.Get("swrec_engine").(*expvar.Map).Get("peers_miss").(*expvar.Int)
	return v.Value()
}
