package api

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"slices"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/checkpoint"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/metrics"
	"swrec/internal/model"
)

// scriptEnv marks the process TestMetricsKeySet re-executes itself in.
const scriptEnv = "SWREC_METRICS_KEY_SCRIPT"

// wantMetricKeys is every swrec_* map's key set after metricsScript in a
// fresh process. A class's swrec_http keys appear at its first request:
// requests and the five latency summaries; errors only after a 5xx,
// which the script never causes. swrec_resilience, published by the
// crawler's breakers, is not linked into this binary.
var wantMetricKeys = map[string][]string{
	"swrec_api": {"request_ns", "requests", "status_200", "status_202", "status_404"},
	"swrec_http": httpKeys("agent", "agents", "delete_rating", "delete_trust", "healthz",
		"metrics", "neighbors", "other", "product", "profile", "recommendations", "stats",
		"strategies", "topic", "write_join", "write_rating", "write_trust"),
	"swrec_engine": {"body_bytes", "body_hit", "body_miss", "carried_peers", "carried_results",
		"carried_rows", "dirty_agents", "peers_hit", "peers_miss", "profile_hit", "restored_rows",
		"restores", "results_miss", "swap_delta", "swaps"},
	"swrec_strategy": {"popularity_attempt", "popularity_success",
		"trust-hop-widening_attempt", "trust-hop-widening_success"},
	"swrec_ingest": {"appended", "applied", "compiled_checkpoints", "queue_depth", "snapshot_builds"},
	"swrec_recovery": {"last_decode_us", "last_epoch", "last_load_ms", "last_read_us",
		"last_restore_us", "last_rung", "last_seq", "recoveries", "source_checkpoint"},
}

func httpKeys(classes ...string) []string {
	var keys []string
	for _, c := range classes {
		for _, k := range []string{"requests", "p50_us", "p90_us", "p99_us", "p999_us", "max_us"} {
			keys = append(keys, c+"_"+k)
		}
	}
	slices.Sort(keys)
	return keys
}

// benchMaps are the maps the repository benchmark reads, every key of
// which it type-asserts to *expvar.Int.
var benchMaps = []string{"swrec_engine", "swrec_strategy", "swrec_ingest"}

// scrape decodes the /v1/metrics body as metrics.Handler writes it,
// without counting a request of its own.
func scrape() (map[string]map[string]float64, error) {
	rec := httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var body map[string]map[string]float64
	return body, json.Unmarshal(rec.Body.Bytes(), &body)
}

// TestMetricsKeySet runs a fixed request script — every endpoint class
// once, each write accepted, one publish, one recovery from the
// checkpoint it leaves — in a fresh process, so that nothing else has
// counted, and pins the key set of every swrec_* map on /v1/metrics.
// swrec_api's requests and request_ns are the totals of the classes'
// histograms.
func TestMetricsKeySet(t *testing.T) {
	if os.Getenv(scriptEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMetricsKeySet$", "-test.v")
		cmd.Env = append(os.Environ(), scriptEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("script process: %v\n%s", err, out)
		}
		return
	}
	metricsScript(t)
	body, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range wantMetricKeys {
		if _, ok := body[name]; !ok {
			t.Errorf("/v1/metrics has no %s", name)
		}
		got := []string{}
		for key := range body[name] {
			got = append(got, key)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s keys:\n got %q\nwant %q", name, got, want)
		}
	}
	for name := range body {
		if _, ok := wantMetricKeys[name]; !ok {
			t.Errorf("unexpected map %s: %v", name, body[name])
		}
	}
	for _, name := range benchMaps {
		expvar.Get(name).(*expvar.Map).Do(func(e expvar.KeyValue) {
			if _, ok := e.Value.(*expvar.Int); !ok {
				t.Errorf("%s.%s is %T, want *expvar.Int", name, e.Key, e.Value)
			}
		})
	}
	var requests float64
	var ns time.Duration
	for ep, name := range endpointNames {
		requests += body["swrec_http"][name+"_requests"]
		ns += endpointStats[ep].latency.Summary().Sum
	}
	if got := body["swrec_api"]["requests"]; got != requests || got == 0 {
		t.Errorf("swrec_api.requests = %v, the classes count %v", got, requests)
	}
	if got := body["swrec_api"]["request_ns"]; got != float64(ns) {
		t.Errorf("swrec_api.request_ns = %v, the histograms hold %d ns", got, ns)
	}
}

// metricsScript is TestMetricsKeySet's request script.
func metricsScript(t *testing.T) {
	comm := testCommunity(t, 30, 40)
	opt := core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
	eng, err := engine.New(comm, opt, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p, err := ingest.Open(eng, dir, ingest.Config{
		SnapshotEvery: 1 << 30, SnapshotInterval: time.Hour, CheckpointEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWritable(eng, p)
	a, b := comm.Agents()[0], comm.Agents()[1]
	pid := comm.Products()[0]
	for _, r := range []struct {
		method, path string
		body         any
		status       int
	}{
		{http.MethodGet, "/v1/healthz", nil, 200},
		{http.MethodGet, "/v1/metrics", nil, 200},
		{http.MethodGet, "/v1/stats", nil, 200},
		{http.MethodGet, "/v1/strategies", nil, 200},
		{http.MethodGet, "/v1/agents?limit=3", nil, 200},
		{http.MethodGet, agentPath(a, ""), nil, 200},
		{http.MethodGet, agentPath(a, "/neighbors"), nil, 200},
		{http.MethodGet, agentPath(a, "/profile"), nil, 200},
		{http.MethodGet, agentPath(a, "/recommendations?n=5"), nil, 200},
		{http.MethodGet, agentPath(a, "/recommendations?n=5"), nil, 200}, // a stored hit
		{http.MethodGet, "/v1/products/" + url.PathEscape(string(pid)), nil, 200},
		{http.MethodGet, "/v1/topics/" + url.PathEscape(comm.Taxonomy().Name(0)), nil, 200},
		{http.MethodGet, "/v1/nowhere", nil, 404},
		{http.MethodPost, "/v1/agents", map[string]any{"id": "http://swrec.example/people/new", "name": "N"}, 202},
		{http.MethodPost, agentPath(a, "/trust"), map[string]any{"peer": b, "value": 0.9}, 202},
		{http.MethodDelete, agentPath(a, "/trust?peer="+url.QueryEscape(string(b))), nil, 202},
		{http.MethodPost, agentPath(a, "/ratings"), map[string]any{"product": pid, "value": 0.5}, 202},
		{http.MethodDelete, agentPath(a, "/ratings?product="+url.QueryEscape(string(pid))), nil, 202},
	} {
		if rec := do(t, s, r.method, r.path, r.body); rec.Code != r.status {
			t.Fatalf("%s %s = %d, want %d: %s", r.method, r.path, rec.Code, r.status, rec.Body)
		}
	}
	if err := p.Flush(); err != nil { // the one publish
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // writes the checkpoint
		t.Fatal(err)
	}
	res, err := checkpoint.Recover(checkpoint.RecoverConfig{
		WALDir:  dir,
		Options: opt,
		Corpus:  func() (*model.Community, error) { return comm, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "checkpoint" {
		t.Fatalf("recovered from %s, want checkpoint", res.Source)
	}
}
