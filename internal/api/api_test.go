package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/model"
)

func testCommunity(t testing.TB, agents, products int) *model.Community {
	t.Helper()
	cfg := datagen.SmallScale()
	cfg.Agents = agents
	cfg.Products = products
	comm, _ := datagen.Generate(cfg)
	return comm
}

func newTestServer(t testing.TB) (*Server, *model.Community, *engine.Engine) {
	t.Helper()
	comm := testCommunity(t, 60, 80)
	eng, err := engine.New(comm, core.Options{
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng), comm, eng
}

// get performs a request and decodes the JSON body into out.
func get(t *testing.T, s *Server, path string, out interface{}) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec.Code
}

// getError asserts an error response and returns the envelope code.
func getError(t *testing.T, s *Server, path string, wantStatus int) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s status = %d, want %d", path, rec.Code, wantStatus)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body not enveloped: %s", rec.Body.String())
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("error envelope incomplete: %s", rec.Body.String())
	}
	return body.Error.Code
}

func TestHealthz(t *testing.T) {
	s, comm, eng := newTestServer(t)
	var out struct {
		Status        string  `json:"status"`
		Epoch         uint64  `json:"epoch"`
		Agents        int     `json:"agents"`
		Products      int     `json:"products"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
	}
	if code := get(t, s, "/v1/healthz", &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out.Status != "ok" || out.Epoch != 1 ||
		out.Agents != comm.NumAgents() || out.Products != comm.NumProducts() {
		t.Fatalf("healthz = %+v", out)
	}
	if out.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", out.UptimeSeconds)
	}

	if _, err := eng.Swap(testCommunity(t, 20, 30)); err != nil {
		t.Fatal(err)
	}
	get(t, s, "/v1/healthz", &out)
	if out.Epoch != 2 || out.Agents != 20 {
		t.Fatalf("healthz after swap = %+v", out)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, comm, _ := newTestServer(t)
	esc := url.PathEscape(string(comm.Agents()[0]))
	get(t, s, "/v1/agents/"+esc+"/recommendations", nil) // generate traffic
	var vars map[string]json.RawMessage
	if code := get(t, s, "/v1/metrics", &vars); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if _, ok := vars["swrec_engine"]; !ok {
		t.Fatal("metrics missing swrec_engine map")
	}
	if _, ok := vars["swrec_api"]; !ok {
		t.Fatal("metrics missing swrec_api map")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, comm, _ := newTestServer(t)
	var out struct {
		Epoch     uint64      `json:"epoch"`
		Community model.Stats `json:"community"`
		Taxonomy  *struct {
			Topics int `json:"Topics"`
		} `json:"taxonomy"`
	}
	if code := get(t, s, "/v1/stats", &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out.Epoch != 1 {
		t.Fatalf("epoch = %d", out.Epoch)
	}
	if out.Community.Agents != comm.NumAgents() {
		t.Fatalf("agents = %d, want %d", out.Community.Agents, comm.NumAgents())
	}
	if out.Taxonomy == nil || out.Taxonomy.Topics != comm.Taxonomy().Len() {
		t.Fatalf("taxonomy stats missing: %+v", out.Taxonomy)
	}
}

type agentsPage struct {
	Items []struct {
		ID       string `json:"id"`
		TrustOut int    `json:"trustOut"`
	} `json:"items"`
	Total  int `json:"total"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
}

func TestAgentsPagination(t *testing.T) {
	s, comm, _ := newTestServer(t)
	var first agentsPage
	if code := get(t, s, "/v1/agents?limit=5", &first); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(first.Items) != 5 || first.Total != comm.NumAgents() ||
		first.Offset != 0 || first.Limit != 5 {
		t.Fatalf("first page = %+v", first)
	}
	for i := 1; i < len(first.Items); i++ {
		if first.Items[i-1].TrustOut < first.Items[i].TrustOut {
			t.Fatal("agents not sorted by trust out-degree")
		}
	}

	// Walk the whole directory in pages: windows must be disjoint and
	// cover every agent exactly once.
	seen := map[string]bool{}
	for offset := 0; ; offset += 7 {
		var p agentsPage
		if code := get(t, s, fmt.Sprintf("/v1/agents?offset=%d&limit=7", offset), &p); code != 200 {
			t.Fatalf("page at %d: status %d", offset, code)
		}
		if p.Total != comm.NumAgents() {
			t.Fatalf("total changed mid-walk: %d", p.Total)
		}
		for _, it := range p.Items {
			if seen[it.ID] {
				t.Fatalf("agent %s appeared twice", it.ID)
			}
			seen[it.ID] = true
		}
		if len(p.Items) < 7 {
			break
		}
	}
	if len(seen) != comm.NumAgents() {
		t.Fatalf("paged %d agents, want %d", len(seen), comm.NumAgents())
	}

	// Past-the-end offset yields an empty page, not an error.
	var empty agentsPage
	if code := get(t, s, "/v1/agents?offset=100000&limit=5", &empty); code != 200 {
		t.Fatalf("past-end status = %d", code)
	}
	if len(empty.Items) != 0 || empty.Total != comm.NumAgents() {
		t.Fatalf("past-end page = %+v", empty)
	}

	if code := getError(t, s, "/v1/agents?limit=x", http.StatusBadRequest); code != "invalid_argument" {
		t.Fatalf("bad limit code = %s", code)
	}
	if code := getError(t, s, "/v1/agents?offset=-3", http.StatusBadRequest); code != "invalid_argument" {
		t.Fatalf("bad offset code = %s", code)
	}
}

func TestAgentDetailAndSubResources(t *testing.T) {
	s, comm, _ := newTestServer(t)
	id := comm.Agents()[0]
	esc := url.PathEscape(string(id))

	var detail struct {
		ID    string `json:"id"`
		Trust []struct {
			Dst   string  `json:"Dst"`
			Value float64 `json:"Value"`
		} `json:"trust"`
	}
	if code := get(t, s, "/v1/agents/"+esc, &detail); code != 200 {
		t.Fatalf("detail status = %d", code)
	}
	if detail.ID != string(id) {
		t.Fatalf("detail ID = %s", detail.ID)
	}
	if len(detail.Trust) != len(comm.Agent(id).TrustedPeers()) {
		t.Fatalf("trust statements = %d, want %d", len(detail.Trust), len(comm.Agent(id).TrustedPeers()))
	}

	var neighbors struct {
		Items []struct {
			Agent  string  `json:"Agent"`
			Weight float64 `json:"Weight"`
		} `json:"items"`
		Total int `json:"total"`
	}
	if code := get(t, s, "/v1/agents/"+esc+"/neighbors?n=10", &neighbors); code != 200 {
		t.Fatalf("neighbors status = %d", code)
	}
	if len(neighbors.Items) > 10 || neighbors.Total < len(neighbors.Items) {
		t.Fatalf("neighbors page: %d items, total %d", len(neighbors.Items), neighbors.Total)
	}

	var prof struct {
		Items []struct {
			Topic string  `json:"topic"`
			Score float64 `json:"score"`
		} `json:"items"`
		Total int `json:"total"`
	}
	if code := get(t, s, "/v1/agents/"+esc+"/profile?n=5", &prof); code != 200 {
		t.Fatalf("profile status = %d", code)
	}
	if len(prof.Items) > 5 {
		t.Fatalf("profile n ignored: %d", len(prof.Items))
	}
	for _, ts := range prof.Items {
		if !strings.HasPrefix(ts.Topic, "Books") || ts.Score <= 0 {
			t.Fatalf("bad profile entry %+v", ts)
		}
	}

	var recs struct {
		Items []struct {
			Product string  `json:"Product"`
			Score   float64 `json:"Score"`
			Title   string  `json:"title"`
		} `json:"items"`
		Total int `json:"total"`
	}
	if code := get(t, s, "/v1/agents/"+esc+"/recommendations?n=5", &recs); code != 200 {
		t.Fatalf("recommendations status = %d", code)
	}
	if len(recs.Items) > 5 {
		t.Fatalf("rec n ignored: %d", len(recs.Items))
	}
	for _, r := range recs.Items {
		if _, rated := comm.Rating(id, model.ProductID(r.Product)); rated {
			t.Fatalf("recommended already-rated %s", r.Product)
		}
	}
}

func TestRecommendationOverrides(t *testing.T) {
	s, comm, _ := newTestServer(t)
	esc := url.PathEscape(string(comm.Agents()[0]))
	base := "/v1/agents/" + esc + "/recommendations"

	var out struct {
		Items []struct {
			Product string `json:"Product"`
		} `json:"items"`
	}
	for _, q := range []string{
		"?metric=none", "?metric=advogato", "?metric=pathtrust",
		"?alpha=1", "?alpha=0", "?measure=pearson",
		"?metric=none&alpha=0.25&measure=pearson&novel=0",
	} {
		if code := get(t, s, base+q, &out); code != 200 {
			t.Fatalf("%s status = %d", q, code)
		}
	}

	// Pure-trust vs pure-similarity blends must both work on neighbors too.
	var nOut struct {
		Items []struct {
			Weight float64 `json:"Weight"`
		} `json:"items"`
	}
	if code := get(t, s, "/v1/agents/"+esc+"/neighbors?alpha=1&n=5", &nOut); code != 200 {
		t.Fatalf("neighbors alpha status = %d", code)
	}

	for _, q := range []string{
		"?metric=bogus", "?alpha=2", "?alpha=x", "?measure=manhattan",
		"?novel=yes", "?n=-1", "?theta=7",
	} {
		if code := getError(t, s, base+q, http.StatusBadRequest); code != "invalid_argument" {
			t.Fatalf("%s error code = %s", q, code)
		}
	}
}

// TestNonFiniteOverridesRejected: strconv.ParseFloat accepts "NaN" and
// "Inf", and NaN is false under every comparison, so a range check
// written as two rejections lets it through — to an empty 200, and, as a
// never-equal cache key, to a dead entry in the neighborhood and result
// caches per request. Both parameters answer 400 on both endpoints and
// the engine is never asked.
func TestNonFiniteOverridesRejected(t *testing.T) {
	s, comm, _ := newTestServer(t)
	base := "/v1/agents/" + url.PathEscape(string(comm.Agents()[0]))
	asked := func() int64 {
		return counter("swrec_engine", "peers_miss") + counter("swrec_engine", "peers_hit") +
			counter("swrec_engine", "results_miss") + counter("swrec_engine", "results_hit")
	}
	before := asked()
	for _, q := range []string{
		"/recommendations?alpha=NaN", "/recommendations?theta=NaN", "/recommendations?alpha=nan&theta=0.4",
		"/recommendations?alpha=Inf", "/recommendations?theta=-Inf",
		"/neighbors?alpha=NaN", "/neighbors?alpha=+Inf",
	} {
		for i := 0; i < 3; i++ {
			if code := getError(t, s, base+q, http.StatusBadRequest); code != "invalid_argument" {
				t.Fatalf("%s error code = %s", q, code)
			}
		}
	}
	if got := asked() - before; got != 0 {
		t.Fatalf("rejected requests probed the engine's caches %d times; each NaN key would have been a new entry", got)
	}
	// /neighbors takes no theta: it is ignored there, not parsed.
	if rec := serve(s, http.MethodGet, base+"/neighbors?theta=NaN"); rec.Code != http.StatusOK {
		t.Fatalf("/neighbors?theta=NaN status = %d", rec.Code)
	}
}

func TestNovelFlag(t *testing.T) {
	s, comm, _ := newTestServer(t)
	esc := url.PathEscape(string(comm.Agents()[0]))
	var std, novel struct {
		Items []struct {
			Product string `json:"Product"`
		} `json:"items"`
	}
	get(t, s, "/v1/agents/"+esc+"/recommendations?n=0", &std)
	get(t, s, "/v1/agents/"+esc+"/recommendations?n=0&novel=1", &novel)
	// Novel results are a (possibly strict) subset of the standard ones.
	set := map[string]bool{}
	for _, r := range std.Items {
		set[r.Product] = true
	}
	for _, r := range novel.Items {
		if !set[r.Product] {
			t.Fatalf("novel rec %s not in standard set", r.Product)
		}
	}
}

func TestThetaDiversification(t *testing.T) {
	s, comm, _ := newTestServer(t)
	esc := url.PathEscape(string(comm.Agents()[0]))
	var plain, div struct {
		Items []struct {
			Product string `json:"Product"`
		} `json:"items"`
	}
	if code := get(t, s, "/v1/agents/"+esc+"/recommendations?n=10", &plain); code != 200 {
		t.Fatalf("plain status = %d", code)
	}
	if code := get(t, s, "/v1/agents/"+esc+"/recommendations?n=10&theta=0.8", &div); code != 200 {
		t.Fatalf("theta status = %d", code)
	}
	if len(div.Items) == 0 || len(div.Items) > 10 {
		t.Fatalf("diversified length = %d", len(div.Items))
	}
	if len(plain.Items) > 0 && len(div.Items) > 0 && plain.Items[0].Product != div.Items[0].Product {
		t.Fatal("diversification must keep the top candidate")
	}
}

func TestTopicPagination(t *testing.T) {
	s, comm, _ := newTestServer(t)
	// The taxonomy root covers the entire catalog.
	root := comm.Taxonomy().Name(0)
	type topicPage struct {
		Topic  string `json:"topic"`
		Total  int    `json:"total"`
		Offset int    `json:"offset"`
		Limit  int    `json:"limit"`
		Items  []struct {
			ID string `json:"id"`
		} `json:"items"`
	}
	var first topicPage
	if code := get(t, s, "/v1/topics/"+url.PathEscape(root)+"?limit=10", &first); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if first.Total != comm.NumProducts() || len(first.Items) != 10 {
		t.Fatalf("root page = total %d items %d", first.Total, len(first.Items))
	}

	seen := map[string]bool{}
	for offset := 0; ; offset += 13 {
		var p topicPage
		if code := get(t, s, fmt.Sprintf("/v1/topics/%s?offset=%d&limit=13", url.PathEscape(root), offset), &p); code != 200 {
			t.Fatalf("page at %d: status %d", offset, code)
		}
		for _, it := range p.Items {
			if seen[it.ID] {
				t.Fatalf("product %s appeared twice", it.ID)
			}
			seen[it.ID] = true
		}
		if len(p.Items) < 13 {
			break
		}
	}
	if len(seen) != comm.NumProducts() {
		t.Fatalf("paged %d products, want %d", len(seen), comm.NumProducts())
	}

	// A leaf topic still reports its own product.
	p := comm.Product(comm.Products()[0])
	topicPath := comm.Taxonomy().QualifiedName(p.Topics[0])
	var leaf topicPage
	if code := get(t, s, "/v1/topics/"+url.PathEscape(topicPath)+"?limit=0", &leaf); code != 200 {
		t.Fatalf("leaf status = %d", code)
	}
	found := false
	for _, e := range leaf.Items {
		if e.ID == string(p.ID) {
			found = true
		}
	}
	if !found || leaf.Topic != topicPath {
		t.Fatalf("product %s missing from its own topic page %+v", p.ID, leaf)
	}

	if code := getError(t, s, "/v1/topics/No/Such/Topic", http.StatusNotFound); code != "not_found" {
		t.Fatalf("unknown topic code = %s", code)
	}
}

func TestProductEndpoint(t *testing.T) {
	s, comm, _ := newTestServer(t)
	pid := comm.Products()[0]
	var out struct {
		ID     string   `json:"id"`
		Topics []string `json:"topics"`
	}
	if code := get(t, s, "/v1/products/"+url.PathEscape(string(pid)), &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out.ID != string(pid) || len(out.Topics) == 0 {
		t.Fatalf("product = %+v", out)
	}
}

func TestErrorEnvelope(t *testing.T) {
	s, _, _ := newTestServer(t)
	if code := getError(t, s, "/v1/agents/"+url.PathEscape("http://nope/x"), http.StatusNotFound); code != "not_found" {
		t.Fatalf("unknown agent code = %s", code)
	}
	if code := getError(t, s, "/v1/products/nope", http.StatusNotFound); code != "not_found" {
		t.Fatalf("unknown product code = %s", code)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", rec.Code)
	}
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != "method_not_allowed" {
		t.Fatalf("POST envelope = %s", rec.Body.String())
	}

	// Invalid options are rejected at engine construction.
	comm := model.NewCommunity(nil)
	if _, err := engine.New(comm, core.Options{Alpha: 5}, engine.Config{}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestProfileWithoutTaxonomy(t *testing.T) {
	comm := model.NewCommunity(nil)
	comm.AddAgent("http://x/a")
	eng, err := engine.New(comm, core.Options{CF: cf.Options{Representation: cf.Product}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng)
	esc := url.PathEscape("http://x/a")
	if code := getError(t, s, "/v1/agents/"+esc+"/profile", http.StatusConflict); code != "no_taxonomy" {
		t.Fatalf("profile code = %s", code)
	}
	if code := getError(t, s, "/v1/topics/Anything", http.StatusConflict); code != "no_taxonomy" {
		t.Fatalf("topics code = %s", code)
	}
}

// TestConcurrentClientsDuringSwap drives many clients through the full
// HTTP stack while the engine swaps snapshots underneath them; run under
// -race. Every response must be a well-formed 200 against a single
// epoch's view.
func TestConcurrentClientsDuringSwap(t *testing.T) {
	s, comm, eng := newTestServer(t)

	const clients = 8
	const perClient = 15
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Resolve a live agent from the *current* directory page so
				// the request targets whichever epoch it lands on.
				req := httptest.NewRequest(http.MethodGet, "/v1/agents?limit=1", nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				var p struct {
					Items []struct {
						ID string `json:"id"`
					} `json:"items"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil || len(p.Items) == 0 {
					errs <- fmt.Errorf("client %d: bad directory page: %s", seed, rec.Body.String())
					return
				}
				esc := url.PathEscape(p.Items[0].ID)
				req = httptest.NewRequest(http.MethodGet, "/v1/agents/"+esc+"/recommendations?n=5", nil)
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				// A swap between the two requests may retire the agent; 404
				// is then correct. Anything else must be a clean 200.
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					errs <- fmt.Errorf("client %d: status %d: %s", seed, rec.Code, rec.Body.String())
					return
				}
			}
		}(c)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Swap(testCommunity(t, 40+i, 50)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := eng.Epoch(); got != 6 {
		t.Fatalf("epoch = %d, want 6", got)
	}
	_ = comm
}

// TestParamMatchesParseQuery: call.param reads the raw query without
// building url.Values, and must answer what url.Values.Get answered —
// including for the pairs url.ParseQuery drops.
func TestParamMatchesParseQuery(t *testing.T) {
	for _, raw := range paramQueries {
		c := &call{r: &http.Request{URL: &url.URL{RawQuery: raw}}}
		want, _ := url.ParseQuery(raw)
		for _, name := range paramNames {
			if got := c.param(name); got != want.Get(name) {
				t.Errorf("query %q: param(%q) = %q, url.Values.Get = %q", raw, name, got, want.Get(name))
			}
		}
	}
}

var (
	paramQueries = []string{
		"", "n=5", "n=5&n=6", "a=1&n=5&metric=none", "n", "n=", "=5", "&&n=5&", "n=5;metric=none", "x;y=1&n=7",
		"n=%35", "%6e=5", "n=%zz&n=6", "%zz=1&n=6", "n=a+b", "a+b=c&n=1", "n=5=6", "metric=none&alpha=0.2&measure=pearson&strategy=-popularity&fresh=1.2",
	}
	paramNames = []string{"n", "metric", "a b", "", "x", "y", "strategy", "absent"}
)

// FuzzParam pins call.param to url.ParseQuery(raw).Get(name) on any raw
// query and any name.
func FuzzParam(f *testing.F) {
	for _, raw := range paramQueries {
		for _, name := range paramNames {
			f.Add(raw, name)
		}
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		c := &call{r: &http.Request{URL: &url.URL{RawQuery: raw}}}
		want, _ := url.ParseQuery(raw)
		if got := c.param(name); got != want.Get(name) {
			t.Fatalf("query %q: param(%q) = %q, url.Values.Get = %q", raw, name, got, want.Get(name))
		}
	})
}
