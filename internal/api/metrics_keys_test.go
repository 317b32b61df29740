package api

import (
	"expvar"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/checkpoint"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
)

// scriptEnv marks the process TestMetricsKeySet re-executes itself in.
const scriptEnv = "SWREC_METRICS_KEY_SCRIPT"

// wantMetricKeys is every swrec_* map's key set after metricsScript in a
// fresh process. A class's swrec_http keys appear at its first request:
// requests, the five decade counts and the five latency summaries;
// errors only after a 5xx, which the script never causes.
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
	"swrec_resilience": {},
}

func httpKeys(classes ...string) []string {
	var keys []string
	for _, c := range classes {
		for _, k := range []string{"requests", "le_1ms", "le_10ms", "le_100ms", "le_1s", "gt_1s",
			"p50_us", "p90_us", "p99_us", "p999_us", "max_us"} {
			keys = append(keys, c+"_"+k)
		}
	}
	slices.Sort(keys)
	return keys
}

// benchMaps are the maps the repository benchmark reads, every key of
// which it type-asserts to *expvar.Int.
var benchMaps = []string{"swrec_engine", "swrec_strategy", "swrec_ingest"}

// TestMetricsKeySet runs a fixed request script — every endpoint class
// once, each write accepted, one publish, one recovery from the
// checkpoint it leaves — in a fresh process, so that nothing else has
// counted, and pins the key set of every swrec_* map.
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
	got := make(map[string][]string)
	expvar.Do(func(kv expvar.KeyValue) {
		m, ok := kv.Value.(*expvar.Map)
		if !strings.HasPrefix(kv.Key, "swrec_") || !ok {
			return
		}
		keys := []string{}
		m.Do(func(e expvar.KeyValue) {
			keys = append(keys, e.Key)
			if slices.Contains(benchMaps, kv.Key) {
				if _, ok := e.Value.(*expvar.Int); !ok {
					t.Errorf("%s.%s is %T, want *expvar.Int", kv.Key, e.Key, e.Value)
				}
			}
		})
		got[kv.Key] = keys
	})
	for name, want := range wantMetricKeys {
		if !slices.Equal(got[name], want) {
			t.Errorf("%s keys:\n got %q\nwant %q", name, got[name], want)
		}
	}
	for name := range got {
		if _, ok := wantMetricKeys[name]; !ok {
			t.Errorf("unexpected map %s: %q", name, got[name])
		}
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
