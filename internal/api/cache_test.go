package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/trust"
)

// serve performs one request and returns the recorder.
func serve(s *Server, method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

// counter reads one key of a swrec_* map — a counter, a histogram's
// summary key or a total — from the /v1/metrics body, as a scrape sees
// it, without counting a request of its own.
func counter(mapName, key string) int64 {
	body, err := scrape()
	if err != nil {
		panic(err)
	}
	return int64(body[mapName][key])
}

// stored reports whether the engine's current snapshot holds a response
// for the request target.
func stored(t *testing.T, eng *engine.Engine, target string) bool {
	t.Helper()
	u, err := url.ParseRequestURI(target)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ok := eng.Snapshot().Body(u.Path, u.RawPath, u.RawQuery)
	return ok
}

// cacheableTargets is every storable endpoint under a spread of
// parameters: defaults, each override, reordered parameters.
func cacheableTargets(comm *model.Community) []string {
	a0, a1 := comm.Agents()[0], comm.Agents()[1]
	root := url.PathEscape(comm.Taxonomy().Name(0))
	product := url.PathEscape(string(comm.Products()[0]))
	return []string{
		"/v1/stats",
		"/v1/strategies",
		"/v1/agents",
		"/v1/agents?offset=3&limit=4",
		"/v1/agents?limit=4&offset=3",
		agentPath(a0, ""),
		agentPath(a1, ""),
		agentPath(a0, "/profile"),
		agentPath(a0, "/profile?n=3"),
		agentPath(a0, "/neighbors"),
		agentPath(a0, "/neighbors?n=5"),
		agentPath(a0, "/neighbors?n=5&metric=pathtrust"),
		agentPath(a0, "/neighbors?measure=pearson&alpha=0.25"),
		agentPath(a0, "/neighbors?strategy=-popularity"),
		agentPath(a0, "/recommendations"),
		agentPath(a1, "/recommendations?n=5"),
		agentPath(a0, "/recommendations?n=5&metric=none"),
		agentPath(a0, "/recommendations?n=5&metric=advogato&alpha=0.2&measure=pearson"),
		agentPath(a0, "/recommendations?measure=pearson&alpha=0.2&metric=advogato&n=5"),
		agentPath(a0, "/recommendations?novel=1"),
		agentPath(a0, "/recommendations?n=4&theta=0.4"),
		agentPath(a0, "/recommendations?strategy=popularity"),
		agentPath(a0, "/recommendations?strategy=-full-synthesis"),
		"/v1/products/" + product,
		"/v1/topics/" + root,
		"/v1/topics/" + root + "?limit=7&offset=2",
	}
}

// TestStoredResponsesAreByteEqual is the response cache's contract: the
// second answer to a URL comes from the snapshot's cache and is, byte
// for byte, the first one — which is what a server that never saw the
// URL before encodes. HEAD shares the entry.
func TestStoredResponsesAreByteEqual(t *testing.T) {
	s, comm, eng := newTestServer(t)
	fresh, _, _ := newTestServer(t)
	for _, target := range cacheableTargets(comm) {
		if stored(t, eng, target) {
			t.Fatalf("%s: stored before it was ever asked", target)
		}
		first := serve(s, http.MethodGet, target)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, first.Code, first.Body)
		}
		if !stored(t, eng, target) {
			t.Fatalf("%s: a repeatable 200 was not stored", target)
		}
		hits, requests, class := counter("swrec_engine", "body_hit"), counter("swrec_api", "requests"), counter("swrec_http", first200Class(target)+"_requests")
		second := serve(s, http.MethodGet, target)
		if got := counter("swrec_engine", "body_hit") - hits; got != 1 {
			t.Fatalf("%s: second request made %d body hits, want 1", target, got)
		}
		if counter("swrec_api", "requests")-requests != 1 || counter("swrec_http", first200Class(target)+"_requests")-class != 1 {
			t.Fatalf("%s: a body hit was not counted as one request of its class", target)
		}
		head := serve(s, http.MethodHead, target)
		want := serve(fresh, http.MethodGet, target)
		for name, got := range map[string]*httptest.ResponseRecorder{"hit": second, "HEAD hit": head, "fresh server": want} {
			if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("%s: %s differs from the first answer\n%s\n--- first ---\n%s", target, name, got.Body, first.Body)
			}
			if ct := got.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: %s Content-Type = %q", target, name, ct)
			}
		}
	}
}

// first200Class names the swrec_http class of a read target.
func first200Class(target string) string {
	u, _ := url.ParseRequestURI(target)
	ep, _, _ := route(http.MethodGet, u.EscapedPath())
	return endpointNames[ep]
}

// TestReorderedParametersAgree: the key is the URL as it arrived, so a
// reordered query is a second entry — holding the same bytes.
func TestReorderedParametersAgree(t *testing.T) {
	s, comm, _ := newTestServer(t)
	a := comm.Agents()[0]
	one := serve(s, http.MethodGet, agentPath(a, "/recommendations?n=5&metric=advogato&alpha=0.2"))
	two := serve(s, http.MethodGet, agentPath(a, "/recommendations?alpha=0.2&metric=advogato&n=5"))
	if one.Code != http.StatusOK || !bytes.Equal(one.Body.Bytes(), two.Body.Bytes()) {
		t.Fatalf("reordered parameters answered differently:\n%s\n%s", one.Body, two.Body)
	}
}

// TestUnrepeatableResponsesAreNeverStored: errors, clock-dependent
// endpoints and anything the strategy ladder answered under deadline
// pressure run their handler every time.
func TestUnrepeatableResponsesAreNeverStored(t *testing.T) {
	s, comm, eng := newTestServer(t)
	a := comm.Agents()[0]
	for target, status := range map[string]int{
		"/v1/healthz":                        http.StatusOK,
		"/v1/metrics":                        http.StatusOK,
		"/v1/nope":                           http.StatusNotFound,
		agentPath("http://nobody", ""):       http.StatusNotFound,
		agentPath(a, "/recommendations?n=x"): http.StatusBadRequest,
		agentPath(a, "/neighbors?alpha=3"):   http.StatusBadRequest,
		agentPath(a, "/trust"):               http.StatusMethodNotAllowed,
		"/v1/products/urn:isbn:none":         http.StatusNotFound,
		// Pinned to the degraded-cache rung: a vote over whatever
		// neighbourhood is cached, marked degraded.
		agentPath(a, "/recommendations?strategy=degraded-cache"): http.StatusOK,
	} {
		for i := 0; i < 2; i++ {
			if rec := serve(s, http.MethodGet, target); rec.Code != status {
				t.Fatalf("%s: status %d, want %d", target, rec.Code, status)
			}
			if stored(t, eng, target) {
				t.Fatalf("%s (%d) was stored", target, status)
			}
		}
	}
}

// TestRepeatable pins the rule for ladder answers one trace at a time.
func TestRepeatable(t *testing.T) {
	at := func(p strategy.Procedure, o strategy.Outcome) strategy.Attempt {
		return strategy.Attempt{Procedure: p, Outcome: o}
	}
	for name, tc := range map[string]struct {
		res  strategy.Result
		want bool
	}{
		"first rung answered": {strategy.Result{Procedure: strategy.FullSynthesis,
			Attempts: []strategy.Attempt{at(strategy.FullSynthesis, strategy.OutcomeOK)}}, true},
		"lower rung answered": {strategy.Result{Procedure: strategy.Popularity, Attempts: []strategy.Attempt{
			at(strategy.FullSynthesis, strategy.OutcomeEmpty), at(strategy.TrustHopWidening, strategy.OutcomeSkipped),
			at(strategy.TaxonomyAncestor, strategy.OutcomeExcluded), at(strategy.Popularity, strategy.OutcomeOK)}}, true},
		"exhausted, nothing timed out": {strategy.Result{Procedure: strategy.None, Attempts: []strategy.Attempt{
			at(strategy.FullSynthesis, strategy.OutcomeEmpty), at(strategy.DegradedCache, strategy.OutcomeSkipped)}}, true},
		"degraded": {strategy.Result{Procedure: strategy.DegradedCache, Degraded: true, Source: "result-cache", Attempts: []strategy.Attempt{
			at(strategy.DegradedCache, strategy.OutcomeOK)}}, false},
		"a flight's budget expired, a lower rung answered": {strategy.Result{Procedure: strategy.Popularity, Attempts: []strategy.Attempt{
			at(strategy.FullSynthesis, strategy.OutcomeDeadline), at(strategy.Popularity, strategy.OutcomeOK)}}, false},
		"a flight's budget expired, nothing answered": {strategy.Result{Procedure: strategy.None, Attempts: []strategy.Attempt{
			at(strategy.FullSynthesis, strategy.OutcomeDeadline), at(strategy.DegradedCache, strategy.OutcomeSkipped)}}, false},
	} {
		if got := repeatable(&tc.res); got != tc.want {
			t.Errorf("%s: repeatable = %v, want %v", name, got, tc.want)
		}
	}
}

// TestDeadlineAnswersAreNeverStored drives the deadline_test.go set-ups:
// a 504, and a degraded 200 from the previous epoch's caches, are both
// functions of the clock. Once the pipeline is fast again the same URL
// gets the full answer, and that one is stored.
func TestDeadlineAnswersAreNeverStored(t *testing.T) {
	var delay atomic.Int64
	s, comm, eng := newSlowServer(t, &delay, 10*time.Millisecond)
	agent := comm.Agents()[0]
	recs, peers := agentPath(agent, "/recommendations"), agentPath(agent, "/neighbors")

	if _, err := eng.Snapshot().Recommend(agent, 10, engine.Overrides{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Swap(testCommunity(t, 30, 40)); err != nil {
		t.Fatal(err)
	}
	delay.Store(int64(150 * time.Millisecond))
	for _, target := range []string{recs, peers} {
		var out degradedPage
		if code := get(t, s, target, &out); code != http.StatusOK || out.Strategy == nil || !out.Strategy.Degraded {
			t.Fatalf("%s: status %d strategy %+v, want a degraded 200", target, code, out.Strategy)
		}
		if stored(t, eng, target) {
			t.Fatalf("%s: a degraded answer was stored", target)
		}
	}
	cold := agentPath(comm.Agents()[1], "/recommendations")
	if code := getError(t, s, cold, http.StatusGatewayTimeout); code != "deadline_exceeded" {
		t.Fatalf("cold agent: %s", code)
	}
	if stored(t, eng, cold) {
		t.Fatal("a 504 was stored")
	}

	// Let the detached flights finish, then ask again at full speed.
	delay.Store(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out degradedPage
		if code := get(t, s, recs, &out); code == http.StatusOK && !out.Strategy.Degraded &&
			out.Strategy.Procedure == strategy.FullSynthesis && out.Strategy.Epoch == eng.Epoch() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the full answer never came back after the pipeline recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !stored(t, eng, recs) {
		t.Fatal("the full answer was not stored")
	}
}

// otherCommunity is a community over the same agent URIs as
// testCommunity but with different statements.
func otherCommunity(agents, products int) *model.Community {
	cfg := datagen.SmallScale()
	cfg.Seed, cfg.Agents, cfg.Products = 77, agents, products
	comm, _ := datagen.Generate(cfg)
	return comm
}

// TestSwapStartsAnEmptyResponseCache: nothing a snapshot stored outlives
// it — after Swap and after SwapDelta the same URL is encoded afresh, with
// the new epoch and the new community's data.
func TestSwapStartsAnEmptyResponseCache(t *testing.T) {
	s, comm, eng := newTestServer(t)
	a := comm.Agents()[0]
	targets := []string{agentPath(a, "/recommendations"), agentPath(a, "/neighbors?n=5"), agentPath(a, ""), "/v1/stats"}
	before := make(map[string][]byte)
	for _, target := range targets {
		serve(s, http.MethodGet, target)
		before[target] = serve(s, http.MethodGet, target).Body.Bytes()
	}

	swaps := []func() (*model.Community, error){
		func() (*model.Community, error) {
			next := otherCommunity(60, 80)
			_, err := eng.Swap(next)
			return next, err
		},
		func() (*model.Community, error) {
			next := eng.Snapshot().Community().Clone()
			if err := next.SetRating(a, next.Products()[3], 0.9); err != nil {
				return nil, err
			}
			if err := next.SetTrust(a, next.Agents()[7], 0.8); err != nil {
				return nil, err
			}
			ord := next.Agent(a).Ord()
			_, err := eng.SwapDelta(next, &engine.Delta{
				RatingsChanged: map[int32]bool{ord: true},
				TrustChanged:   map[int32]bool{ord: true},
			})
			return next, err
		},
	}
	for i, swap := range swaps {
		next, err := swap()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.New(next, eng.Options(), engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			if stored(t, eng, target) {
				t.Fatalf("swap %d: %s survived the swap", i, target)
			}
			got := serve(s, http.MethodGet, target).Body.Bytes()
			if bytes.Equal(got, before[target]) {
				t.Fatalf("swap %d: %s still answers with the superseded epoch's bytes", i, target)
			}
			// A from-scratch engine over the new community agrees on
			// everything but the epoch number it stamps.
			want := serve(New(ref), http.MethodGet, target).Body.Bytes()
			if !bytes.Equal(restampEpoch(got, eng.Epoch(), 1), want) {
				t.Fatalf("swap %d: %s\n%s\n--- want (epoch 1) ---\n%s", i, target, got, want)
			}
			before[target] = got
		}
	}
}

// restampEpoch rewrites the epoch number of an encoded response.
func restampEpoch(body []byte, from, to uint64) []byte {
	return bytes.ReplaceAll(body, []byte(fmt.Sprintf(`"epoch": %d`, from)), []byte(fmt.Sprintf(`"epoch": %d`, to)))
}

// TestConcurrentReadsAcrossSwaps is the -race test of the pin-once rule:
// while the engine alternates between two communities, every body a
// reader gets must be, whole, the answer of one snapshot — the items of
// the community its strategy.epoch names, never bytes stored by another
// epoch — and that epoch must be one the engine served while the request
// ran.
func TestConcurrentReadsAcrossSwaps(t *testing.T) {
	s, comm, eng := newTestServer(t)
	comms := [2]*model.Community{otherCommunity(60, 80), comm} // epoch parity → community
	agents := comm.Agents()[:6]
	target := func(a model.AgentID) string { return agentPath(a, "/recommendations?n=5") }

	// What each community answers, by agent, minus the epoch stamp.
	type answer struct {
		Items    json.RawMessage  `json:"items"`
		Strategy *strategy.Result `json:"strategy"`
	}
	var want [2]map[model.AgentID]string
	for i, c := range comms {
		ref, err := engine.New(c, eng.Options(), engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make(map[model.AgentID]string)
		for _, a := range agents {
			var out answer
			if code := get(t, New(ref), target(a), &out); code != http.StatusOK {
				t.Fatalf("reference %d: status %d", i, code)
			}
			want[i][a] = string(out.Items)
		}
	}

	const readers, swaps = 4, 24
	var wg sync.WaitGroup
	var done atomic.Bool
	var hits atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				a := agents[(r+i)%len(agents)]
				before := eng.Epoch()
				hit := counter("swrec_engine", "body_hit")
				rec := serve(s, http.MethodGet, target(a))
				after := eng.Epoch()
				hits.Add(counter("swrec_engine", "body_hit") - hit)
				var out answer
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK || out.Strategy == nil {
					t.Errorf("reader %d: status %d: %s", r, rec.Code, rec.Body)
					return
				}
				if e := out.Strategy.Epoch; e < before || e > after {
					t.Errorf("reader %d: body of epoch %d served while the engine went %d → %d", r, e, before, after)
					return
				}
				if string(out.Items) != want[out.Strategy.Epoch%2][a] {
					t.Errorf("reader %d: %s at epoch %d carries another community's items", r, a, out.Strategy.Epoch)
					return
				}
			}
		}(r)
	}
	for i := 0; i < swaps; i++ {
		time.Sleep(2 * time.Millisecond)
		if _, err := eng.Swap(comms[(eng.Epoch()+1)%2]); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no request was answered from the response cache; the test exercised nothing")
	}
}

// TestOversizedBodyServedNotStored: a listing over the entry limit is
// answered in full every time and never takes cache budget. Under the
// default M = 150 no /neighbors body comes near the limit, so the engine
// states bounds wide enough for a 700-peer listing.
func TestOversizedBodyServedNotStored(t *testing.T) {
	comm := testCommunity(t, 700, 80)
	eng, err := engine.New(comm, core.Options{
		Appleseed:      trust.AppleseedOptions{MaxNodes: 700},
		MaxNeighbors:   700,
		TrustThreshold: 1e-300,
		CF:             cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng)
	hub := eng.Snapshot().AgentsByTrustOut()[0]
	all, some := agentPath(hub, "/neighbors?n=0"), agentPath(hub, "/neighbors?n=5")
	for i := 0; i < 2; i++ {
		rec := serve(s, http.MethodGet, all)
		if rec.Code != http.StatusOK || rec.Body.Len() <= engine.MaxBodyEntry {
			t.Fatalf("n=0: status %d, %d bytes; the test needs a body over %d", rec.Code, rec.Body.Len(), engine.MaxBodyEntry)
		}
		var out strategyPage
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Items) != out.Total {
			t.Fatalf("n=0: truncated or undecodable body (%v)", err)
		}
		if stored(t, eng, all) {
			t.Fatal("an oversized body was stored")
		}
	}
	serve(s, http.MethodGet, some)
	if !stored(t, eng, some) {
		t.Fatal("the bounded listing of the same agent was not stored")
	}
}

// TestHugeNIsClamped is the regression test for n being used as an
// allocation size (profile) and multiplied (recommendations with theta)
// before anything bounded it.
func TestHugeNIsClamped(t *testing.T) {
	s, comm, _ := newTestServer(t)
	a := comm.Agents()[0]
	for _, huge := range []string{"4611686018427387904", "9223372036854775807", "1000000000"} {
		for suffix, all := range map[string]string{
			"/profile?n=":                   "/profile?n=0",
			"/recommendations?n=":           "/recommendations?n=0",
			"/recommendations?theta=0.4&n=": fmt.Sprintf("/recommendations?theta=0.4&n=%d", comm.NumProducts()),
			"/neighbors?n=":                 "/neighbors?n=0",
		} {
			got := serve(s, http.MethodGet, agentPath(a, suffix+huge))
			want := serve(s, http.MethodGet, agentPath(a, all))
			if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s%s: status %d, and not the answer of %s\n%s\n---\n%s", suffix, huge, got.Code, all, got.Body, want.Body)
			}
		}
	}
}

// reusedWriter is a ResponseWriter that, like the benchmark's sink and
// unlike a recorder, is handed to ServeHTTP again and again.
type reusedWriter struct {
	hdr http.Header
	n   int
}

func (w *reusedWriter) Header() http.Header         { return w.hdr }
func (w *reusedWriter) WriteHeader(int)             {}
func (w *reusedWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestStoredHitAllocatesNothing: a warm GET is a lookup and a write.
func TestStoredHitAllocatesNothing(t *testing.T) {
	s, comm, _ := newTestServer(t)
	w := &reusedWriter{hdr: make(http.Header)}
	for _, target := range []string{
		agentPath(comm.Agents()[0], "/recommendations?n=10"),
		agentPath(comm.Agents()[0], "/neighbors?n=25"),
		"/v1/products/" + url.PathEscape(string(comm.Products()[0])),
	} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		s.ServeHTTP(w, req) // miss: stores
		hits := counter("swrec_engine", "body_hit")
		if allocs := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, req) }); allocs != 0 {
			t.Errorf("%s: %v allocations per stored hit, want 0", target, allocs)
		}
		if counter("swrec_engine", "body_hit") == hits {
			t.Fatalf("%s: the measured requests were not hits", target)
		}
	}
}

// TestRoute pins the one routing table: class and variable segment for
// every shape of path, including the ones that only differ by method.
func TestRoute(t *testing.T) {
	for _, tc := range []struct {
		method, path, class, arg string
	}{
		{"GET", "/v1/healthz", "healthz", ""},
		{"GET", "/v1/metrics", "metrics", ""},
		{"GET", "/v1/stats", "stats", ""},
		{"GET", "/v1/strategies", "strategies", ""},
		{"GET", "/v1/agents", "agents", ""},
		{"DELETE", "/v1/agents", "agents", ""},
		{"POST", "/v1/agents", "write_join", ""},
		{"GET", "/v1/agents/", "agent", ""},
		{"GET", "/v1/agents/http:%2F%2Fx%2Fa", "agent", "http:%2F%2Fx%2Fa"},
		{"GET", "/v1/agents/neighbors", "agent", "neighbors"},
		{"GET", "/v1/agents/a/b", "agent", "a/b"},
		{"GET", "/v1/agents/http:%2F%2Fx%2Fa/neighbors", "neighbors", "http:%2F%2Fx%2Fa"},
		{"GET", "/v1/agents/http:%2F%2Fx%2Fa/profile", "profile", "http:%2F%2Fx%2Fa"},
		{"HEAD", "/v1/agents/a/recommendations", "recommendations", "a"},
		{"GET", "/v1/agents//recommendations", "recommendations", ""},
		{"POST", "/v1/agents/a/trust", "write_trust", "a"},
		{"GET", "/v1/agents/a/trust", "write_trust", "a"},
		{"DELETE", "/v1/agents/a/trust", "delete_trust", "a"},
		{"POST", "/v1/agents/a/ratings", "write_rating", "a"},
		{"DELETE", "/v1/agents/a/ratings", "delete_rating", "a"},
		{"GET", "/v1/products/urn:isbn:1", "product", "urn:isbn:1"},
		{"GET", "/v1/products/", "product", ""},
		{"GET", "/v1/topics/Books%2FFiction", "topic", "Books%2FFiction"},
		{"GET", "/v1/products", "other", ""},
		{"GET", "/v1/healthz/", "other", ""},
		{"GET", "/v1", "other", ""},
		{"GET", "/v2/agents", "other", ""},
		{"GET", "/", "other", ""},
	} {
		ep, h, arg := route(tc.method, tc.path)
		if endpointNames[ep] != tc.class || arg != tc.arg || h == nil {
			t.Errorf("route(%s %s) = %s, %q; want %s, %q", tc.method, tc.path, endpointNames[ep], arg, tc.class, tc.arg)
		}
	}
}

// oldMux is the http.ServeMux the router replaced: the old eight
// patterns, each answering 418 so that a routed path is told apart.
func oldMux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, pattern := range []string{"/v1/healthz", "/v1/metrics", "/v1/stats", "/v1/strategies",
		"/v1/agents", "/v1/agents/", "/v1/products/", "/v1/topics/"} {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusTeapot) })
	}
	return mux
}

// routeTargets are paths the mux redirects, refuses or routes, among them
// every kind of unclean path.
func routeTargets(comm *model.Community) []string {
	escaped := url.PathEscape(string(comm.Agents()[0]))
	return []string{
		"/v1/products", "/v1/topics", "/v1/products?x=1", "/v1//products", "/v1/products/x/..",
		"/v1//agents", "/v1/agents/../stats", "/v1/agents/./" + escaped, "/v1/agents//recommendations",
		"/v1/agents/" + string(comm.Agents()[0]) + "/recommendations?n=3", // unescaped URI: // collapses
		"/v1/agents/" + escaped + "/", "/v1/agents/" + escaped + "//", "/v1/stats/.", "/v1/stats/..",
		"//", "/.", "/v1/", "/v1", "/v1/healthz/", "/v1/agents/", "/v1/products/", "/v1/topics/",
		"/v1/stats", "/v1/agents", "/v1/agents/" + escaped, "/v1/agents/" + escaped + "/profile",
		"*", // refused: only OPTIONS may ask for the server itself
	}
}

// routeLikeMux requires the router to answer a GET of target as the mux
// does when the mux redirects or refuses it — status, Location and body
// — and to route it when the mux routes it.
func routeLikeMux(t *testing.T, s *Server, mux *http.ServeMux, target string) {
	t.Helper()
	want := httptest.NewRecorder()
	mux.ServeHTTP(want, httptest.NewRequest(http.MethodGet, target, nil))
	got := serve(s, http.MethodGet, target)
	if want.Code == http.StatusTeapot { // the mux routed it: so must we
		if got.Code == http.StatusMovedPermanently || got.Body.String() == "404 page not found\n" {
			t.Errorf("%s: the mux routed it, the router answered %d %q", target, got.Code, got.Body)
		}
		return
	}
	if got.Code != want.Code || got.Header().Get("Location") != want.Header().Get("Location") ||
		got.Body.String() != want.Body.String() {
		t.Errorf("%s: %d %q %q, the mux answered %d %q %q", target,
			got.Code, got.Header().Get("Location"), got.Body, want.Code, want.Header().Get("Location"), want.Body)
	}
}

// TestRedirectsMatchServeMux: the router answers the paths http.ServeMux
// redirected or refused exactly as a mux holding the old eight patterns
// does — status, Location and body — and routes every path the mux routed.
func TestRedirectsMatchServeMux(t *testing.T) {
	s, comm, _ := newTestServer(t)
	mux := oldMux()
	for _, target := range routeTargets(comm) {
		routeLikeMux(t, s, mux, target)
	}
}

// FuzzRoute is TestRedirectsMatchServeMux over any request target the
// stdlib parses: the mux holding the old patterns is the router's oracle.
//
//	go test -fuzz FuzzRoute ./internal/api
func FuzzRoute(f *testing.F) {
	s, comm, _ := newTestServer(f)
	mux := oldMux()
	for _, target := range routeTargets(comm) {
		f.Add(target)
	}
	f.Fuzz(func(t *testing.T, target string) {
		if _, err := url.ParseRequestURI(target); err != nil {
			t.Skip()
		}
		// httptest.NewRequest panics on a request line ReadRequest
		// refuses (a space or a newline in the target, say).
		if _, err := http.ReadRequest(bufio.NewReader(strings.NewReader("GET " + target + " HTTP/1.0\r\n\r\n"))); err != nil {
			t.Skip()
		}
		routeLikeMux(t, s, mux, target)
	})
}

// bodyKeyParams are the query parameters some handler reads.
var bodyKeyParams = []string{"n", "offset", "limit", "alpha", "measure", "metric", "novel", "peer", "product", "strategy", "theta"}

// readTarget parses a request target as the server receives it, or
// reports false when net/http would refuse the request line.
func readTarget(target string) (*http.Request, bool) {
	r, err := http.ReadRequest(bufio.NewReader(strings.NewReader("GET " + target + " HTTP/1.0\r\n\r\n")))
	return r, err == nil
}

// sameAnswerForKey fails unless two requests that share a body-cache key
// — equal (Path, RawPath, RawQuery) — reach the same handler with the
// same path argument and the same parameter values: only then may one's
// stored answer be replayed for the other.
func sameAnswerForKey(t *testing.T, a, b *http.Request) {
	t.Helper()
	if a.URL.Path != b.URL.Path || a.URL.RawPath != b.URL.RawPath || a.URL.RawQuery != b.URL.RawQuery {
		return // different keys: nothing is shared
	}
	ea, ha, argA := route(http.MethodGet, a.URL.EscapedPath())
	eb, hb, argB := route(http.MethodGet, b.URL.EscapedPath())
	if ea != eb || reflect.ValueOf(ha).Pointer() != reflect.ValueOf(hb).Pointer() || argA != argB ||
		movedTo(a.URL.EscapedPath()) != movedTo(b.URL.EscapedPath()) {
		t.Fatalf("%q and %q share a body key but route to %s %q and %s %q", a.RequestURI, b.RequestURI,
			endpointNames[ea], argA, endpointNames[eb], argB)
	}
	ca, cb := &call{r: a}, &call{r: b}
	for _, name := range bodyKeyParams {
		if ca.param(name) != cb.param(name) {
			t.Fatalf("%q and %q share a body key but read %s=%q and %q", a.RequestURI, b.RequestURI, name, ca.param(name), cb.param(name))
		}
	}
}

// FuzzBodyKey: the response cache keys a stored body by (Path, RawPath,
// RawQuery), so any two request targets with that key equal must route
// alike and read the same parameters. Each input is checked against the
// other and against its own re-serialization, which is where differently
// spelled targets with one key come from.
//
//	go test -fuzz FuzzBodyKey ./internal/api
func FuzzBodyKey(f *testing.F) {
	_, comm, _ := newTestServer(f)
	targets := routeTargets(comm)
	escaped := url.PathEscape(string(comm.Agents()[0]))
	targets = append(targets,
		"/v1/agents/"+escaped+"/recommendations?n=3&alpha=0.5",
		"/v1/agents/"+escaped+"/recommendations?alpha=0.5&n=3",
		"/v1/agents/"+strings.ReplaceAll(escaped, "%2F", "%2f")+"/neighbors?metric=advogato",
		"/v1/%61gents/"+escaped+"/profile", "/v1/agents?offset=1&limit=2#frag")
	for i, a := range targets {
		f.Add(a, targets[(i+1)%len(targets)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, ok := readTarget(a)
		if !ok {
			t.Skip()
		}
		if rb, ok := readTarget(b); ok {
			sameAnswerForKey(t, ra, rb)
		}
		if rc, ok := readTarget(ra.URL.RequestURI()); ok {
			sameAnswerForKey(t, ra, rc)
		}
	})
}

// TestUnroutedPath404: a path outside the table gets net/http's plain
// 404, counted under the "other" class.
func TestUnroutedPath404(t *testing.T) {
	s, _, _ := newTestServer(t)
	before := counter("swrec_http", "other_requests")
	rec := serve(s, http.MethodGet, "/v1/nope")
	if rec.Code != http.StatusNotFound || rec.Body.String() != "404 page not found\n" {
		t.Fatalf("status %d body %q", rec.Code, rec.Body)
	}
	if counter("swrec_http", "other_requests")-before != 1 {
		t.Fatal("not counted under other_requests")
	}
}
