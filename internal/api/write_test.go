package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/wal"
)

// newWritableServer builds a server over a real ingest pipeline with
// automatic snapshot triggers disabled; tests flush explicitly.
func newWritableServer(t *testing.T) (*Server, *ingest.Pipeline, *model.Community, *engine.Engine) {
	t.Helper()
	comm := testCommunity(t, 30, 40)
	eng, err := engine.New(comm, core.Options{
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ingest.Open(eng, t.TempDir(), ingest.Config{
		SnapshotEvery: 1 << 30, SnapshotInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return NewWritable(eng, p), p, comm, eng
}

// do performs a request with an optional JSON body and returns the
// recorder.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(raw))
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// wantAccepted decodes a 202 acknowledgement and returns the sequence.
func wantAccepted(t *testing.T, rec *httptest.ResponseRecorder) uint64 {
	t.Helper()
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202: %s", rec.Code, rec.Body.String())
	}
	var ack struct {
		Status string `json:"status"`
		Seq    uint64 `json:"seq"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatalf("bad ack body: %s", rec.Body.String())
	}
	if ack.Status != "accepted" || ack.Seq == 0 {
		t.Fatalf("ack = %+v", ack)
	}
	return ack.Seq
}

// wantErrorCode asserts an enveloped error with the given status.
func wantErrorCode(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int) string {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status = %d, want %d: %s", rec.Code, wantStatus, rec.Body.String())
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code == "" {
		t.Fatalf("error body not enveloped: %s", rec.Body.String())
	}
	return body.Error.Code
}

func agentPath(id model.AgentID, suffix string) string {
	return "/v1/agents/" + url.PathEscape(string(id)) + suffix
}

func TestWriteTrustRoundTrip(t *testing.T) {
	s, p, comm, eng := newWritableServer(t)
	src, dst := comm.Agents()[0], comm.Agents()[1]

	seq := wantAccepted(t, do(t, s, http.MethodPost, agentPath(src, "/trust"),
		map[string]any{"peer": dst, "value": 0.9}))
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	// Durable but not yet visible; visible after flush.
	if v, ok := eng.Snapshot().Community().Trust(src, dst); ok && v == 0.9 {
		t.Fatal("write visible before epoch swap")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Snapshot().Community().Trust(src, dst); !ok || v != 0.9 {
		t.Fatalf("trust after flush = %v,%v, want 0.9", v, ok)
	}

	// Retract it again.
	wantAccepted(t, do(t, s, http.MethodDelete,
		agentPath(src, "/trust")+"?peer="+url.QueryEscape(string(dst)), nil))
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Snapshot().Community().Trust(src, dst); ok {
		t.Fatal("trust edge survived DELETE")
	}
}

func TestWriteRatingValidation(t *testing.T) {
	s, p, comm, eng := newWritableServer(t)
	agent := comm.Agents()[0]
	product := comm.Products()[0]

	// Cataloged product: accepted.
	wantAccepted(t, do(t, s, http.MethodPost, agentPath(agent, "/ratings"),
		map[string]any{"product": product, "value": -0.25}))
	// Unknown product with a checksum-failing ISBN: rejected.
	if code := wantErrorCode(t, do(t, s, http.MethodPost, agentPath(agent, "/ratings"),
		map[string]any{"product": "urn:isbn:12345", "value": 0.5}), http.StatusBadRequest); code != "invalid_argument" {
		t.Fatalf("code = %q", code)
	}
	// Unknown plain product URI: rejected.
	wantErrorCode(t, do(t, s, http.MethodPost, agentPath(agent, "/ratings"),
		map[string]any{"product": "http://nowhere/new", "value": 0.5}), http.StatusBadRequest)
	// Out-of-range value: rejected.
	wantErrorCode(t, do(t, s, http.MethodPost, agentPath(agent, "/ratings"),
		map[string]any{"product": product, "value": 3.0}), http.StatusBadRequest)
	// Malformed body: rejected.
	wantErrorCode(t, do(t, s, http.MethodPost, agentPath(agent, "/ratings"),
		map[string]any{"produkt": "typo"}), http.StatusBadRequest)

	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Snapshot().Community().Rating(agent, product); !ok || v != -0.25 {
		t.Fatalf("rating after flush = %v,%v, want -0.25", v, ok)
	}

	// Retract needs the product query parameter.
	wantErrorCode(t, do(t, s, http.MethodDelete, agentPath(agent, "/ratings"), nil),
		http.StatusBadRequest)
	wantAccepted(t, do(t, s, http.MethodDelete,
		agentPath(agent, "/ratings")+"?product="+url.QueryEscape(string(product)), nil))
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Snapshot().Community().Rating(agent, product); ok {
		t.Fatal("rating survived DELETE")
	}
}

func TestWriteUpsertAgent(t *testing.T) {
	s, p, _, eng := newWritableServer(t)

	wantAccepted(t, do(t, s, http.MethodPost, "/v1/agents",
		map[string]any{"id": "http://people/new", "name": "Newcomer"}))
	wantErrorCode(t, do(t, s, http.MethodPost, "/v1/agents",
		map[string]any{"id": "", "name": "anon"}), http.StatusBadRequest)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	a := eng.Snapshot().Community().Agent("http://people/new")
	if a == nil || a.Name != "Newcomer" {
		t.Fatalf("upserted agent = %+v", a)
	}
	// The new agent can now receive trust writes.
	wantAccepted(t, do(t, s, http.MethodPost, agentPath("http://people/new", "/trust"),
		map[string]any{"peer": eng.Snapshot().Community().Agents()[0], "value": 0.5}))
}

func TestWriteUnknownAgent404(t *testing.T) {
	s, _, _, _ := newWritableServer(t)
	if code := wantErrorCode(t, do(t, s, http.MethodPost, agentPath("http://nobody/here", "/trust"),
		map[string]any{"peer": "http://x/y", "value": 0.5}), http.StatusNotFound); code != "not_found" {
		t.Fatalf("code = %q", code)
	}
}

func TestWriteMethodGates(t *testing.T) {
	// Read-only server: every write bounces with 405.
	ro, comm, _ := newTestServer(t)
	agent := comm.Agents()[0]
	wantErrorCode(t, do(t, ro, http.MethodPost, "/v1/agents",
		map[string]any{"id": "http://x/a"}), http.StatusMethodNotAllowed)
	wantErrorCode(t, do(t, ro, http.MethodPost, agentPath(agent, "/trust"),
		map[string]any{"peer": "http://x/b", "value": 1}), http.StatusMethodNotAllowed)

	// Writable server: writes to read endpoints still bounce, GET on the
	// write subresources bounces, unsupported methods bounce.
	s, _, comm2, _ := newWritableServer(t)
	agent2 := comm2.Agents()[0]
	wantErrorCode(t, do(t, s, http.MethodPost, "/v1/healthz", nil), http.StatusMethodNotAllowed)
	wantErrorCode(t, do(t, s, http.MethodPost, "/v1/stats", nil), http.StatusMethodNotAllowed)
	wantErrorCode(t, do(t, s, http.MethodDelete, agentPath(agent2, "/neighbors"), nil), http.StatusMethodNotAllowed)
	wantErrorCode(t, do(t, s, http.MethodGet, agentPath(agent2, "/trust"), nil), http.StatusMethodNotAllowed)
	wantErrorCode(t, do(t, s, http.MethodPut, agentPath(agent2, "/trust"), nil), http.StatusMethodNotAllowed)
	// Reads still work on the writable server.
	if rec := do(t, s, http.MethodGet, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/healthz on writable server = %d", rec.Code)
	}
}

// overloadedWriter simulates a saturated pipeline.
type overloadedWriter struct{}

func (overloadedWriter) Submit(wal.Mutation) (uint64, error) { return 0, ingest.ErrOverloaded }

func TestWriteOverloaded503(t *testing.T) {
	_, comm, eng := newTestServer(t)
	s := NewWritable(eng, overloadedWriter{})
	agent := comm.Agents()[0]
	rec := do(t, s, http.MethodPost, agentPath(agent, "/trust"),
		map[string]any{"peer": "http://x/b", "value": 0.5})
	if code := wantErrorCode(t, rec, http.StatusServiceUnavailable); code != "overloaded" {
		t.Fatalf("code = %q", code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 overloaded without Retry-After")
	}
}

// recordingWriter acknowledges every mutation and keeps the ones it got.
type recordingWriter struct{ got []wal.Mutation }

func (w *recordingWriter) Submit(m wal.Mutation) (uint64, error) {
	w.got = append(w.got, m)
	return uint64(len(w.got)), nil
}

// FuzzWriteBody sends any POST body to the three write endpoints —
// /v1/agents, …/trust and …/ratings, the latter two under a known or an
// unknown agent — through ServeHTTP. Every answer is a 202, a 400 or a
// 404 in the JSON envelope, never a 500 or a panic, and a 202 acknowledges
// exactly one mutation, one ingest.ValidateIn accepts.
func FuzzWriteBody(f *testing.F) {
	_, comm, eng := newTestServer(f)
	w := &recordingWriter{}
	s := NewWritable(eng, w)
	agents, products := comm.Agents(), comm.Products()
	seed := func(target, agent uint8, body any) {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(target, agent, raw)
	}
	const agentsPath, trustPath, ratingsPath = 0, 1, 2
	const unknown = 255 // an agent index past the community: 404
	seed(trustPath, 0, map[string]any{"peer": agents[1], "value": 0.9})
	seed(trustPath, unknown, map[string]any{"peer": "http://x/y", "value": 0.5})
	seed(trustPath, 0, map[string]any{"peer": agents[0], "value": -1})
	seed(ratingsPath, 0, map[string]any{"product": products[0], "value": -0.25})
	seed(ratingsPath, 0, map[string]any{"product": "urn:isbn:12345", "value": 0.5})
	seed(ratingsPath, 0, map[string]any{"product": "urn:isbn:9780553380958", "value": 0.5})
	seed(ratingsPath, 0, map[string]any{"product": "http://nowhere/new", "value": 0.5})
	seed(ratingsPath, 0, map[string]any{"product": products[0], "value": 3.0})
	seed(ratingsPath, 0, map[string]any{"produkt": "typo"})
	seed(agentsPath, 0, map[string]any{"id": "http://people/new", "name": "Newcomer"})
	seed(agentsPath, 0, map[string]any{"id": "", "name": "anon"})
	for _, raw := range []string{"", "null", "[]", `{"value":1e400}`, `{"peer":"http://x/y","value":0.5} trailing`, `{"id":"\u0000"}`, "{"} {
		for target := uint8(0); target < 3; target++ {
			f.Add(target, uint8(0), []byte(raw))
		}
	}

	f.Fuzz(func(t *testing.T, target, agent uint8, body []byte) {
		path := "/v1/agents"
		if target%3 != agentsPath {
			id := model.AgentID("http://nobody/here")
			if int(agent) < len(agents) {
				id = agents[agent]
			}
			path = agentPath(id, [...]string{trustPath: "/trust", ratingsPath: "/ratings"}[target%3])
		}
		before := len(w.got)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))

		if ct := rec.Header().Get("Content-Type"); ct != jsonContentType {
			t.Fatalf("POST %s %q: %d with Content-Type %q", path, body, rec.Code, ct)
		}
		submitted := w.got[before:]
		switch rec.Code {
		case http.StatusAccepted:
			var ack accepted
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Status != "accepted" || ack.Seq != uint64(len(w.got)) {
				t.Fatalf("POST %s %q: 202 with body %s", path, body, rec.Body)
			}
			if len(submitted) != 1 {
				t.Fatalf("POST %s %q: 202 after %d submissions", path, body, len(submitted))
			}
			if err := ingest.ValidateIn(eng.Snapshot().Community(), submitted[0]); err != nil {
				t.Fatalf("POST %s %q: 202 for %+v, which ValidateIn refuses: %v", path, body, submitted[0], err)
			}
		case http.StatusBadRequest, http.StatusNotFound:
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("POST %s %q: %d without the error envelope: %s", path, body, rec.Code, rec.Body)
			}
			if len(submitted) != 0 {
				t.Fatalf("POST %s %q: %d after submitting %+v", path, body, rec.Code, submitted)
			}
		default:
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
