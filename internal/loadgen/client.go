package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"swrec/internal/attack"
	"swrec/internal/core"
	"swrec/internal/model"
)

// Target abstracts where the traffic lands: an in-process handler
// (hermetic runs, tests) or a live server over TCP. Implementations
// must be safe for concurrent use.
type Target interface {
	// Do issues one request and returns the status code, response body,
	// and the Retry-After header value if present ("" otherwise).
	Do(method, path string, body []byte) (status int, resp []byte, retryAfter string, err error)
}

// HandlerTarget drives an http.Handler directly — no sockets, no
// client-side queueing, so latency is the handler's service time.
type HandlerTarget struct {
	Handler http.Handler
}

// respBuf is a minimal ResponseWriter; httptest's recorder would do,
// but pulling a testing-flavored package into the production harness
// path for 30 lines isn't worth it.
type respBuf struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (r *respBuf) Header() http.Header { return r.hdr }
func (r *respBuf) WriteHeader(c int)   { r.code = c }
func (r *respBuf) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.buf.Write(p)
}

func (t HandlerTarget) Do(method, path string, body []byte) (int, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://in-process"+path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := &respBuf{hdr: make(http.Header)}
	t.Handler.ServeHTTP(w, req)
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.code, w.buf.Bytes(), w.hdr.Get("Retry-After"), nil
}

// HTTPTarget drives a live server. Base is e.g. "http://127.0.0.1:8080".
type HTTPTarget struct {
	Base   string
	Client *http.Client
}

func (t HTTPTarget) Do(method, path string, body []byte) (int, []byte, string, error) {
	cl := t.Client
	if cl == nil {
		cl = http.DefaultClient
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, strings.TrimRight(t.Base, "/")+path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return resp.StatusCode, nil, "", err
	}
	return resp.StatusCode, data, resp.Header.Get("Retry-After"), nil
}

// Resolver maps the plan's index space onto concrete IDs. It holds
// plain ID slices — never the community itself — so nothing here pins
// an epoch (snapshotpin) and a resolver stays valid across swaps.
type Resolver struct {
	AgentIDs   []model.AgentID
	ProductIDs []model.ProductID
	TopicPaths []string
	BaseHost   string
}

// JoinerID names the ordinal-th churn joiner. Deterministic, so a
// restarted run resolves the same identities.
func (r *Resolver) JoinerID(ordinal int) model.AgentID {
	return model.AgentID(fmt.Sprintf("http://%s/people/j%d", r.BaseHost, ordinal))
}

// AgentRef resolves a plan agent reference.
func (r *Resolver) AgentRef(ref int) model.AgentID {
	if j := joinerOrdinal(ref); j >= 0 {
		return r.JoinerID(j)
	}
	return r.AgentIDs[ref%len(r.AgentIDs)]
}

func agentPath(id model.AgentID, suffix string) string {
	return "/v1/agents/" + url.PathEscape(string(id)) + suffix
}

// Request materializes one planned event into an HTTP request triple.
func (r *Resolver) Request(ev *Event) (method, path string, body []byte) {
	switch ev.Endpoint {
	case EpRecommendations:
		return http.MethodGet, agentPath(r.AgentRef(ev.Agent), fmt.Sprintf("/recommendations?n=%d", ev.N)), nil
	case EpNeighbors:
		return http.MethodGet, agentPath(r.AgentRef(ev.Agent), fmt.Sprintf("/neighbors?n=%d", ev.N)), nil
	case EpProfile:
		return http.MethodGet, agentPath(r.AgentRef(ev.Agent), "/profile"), nil
	case EpAgent:
		return http.MethodGet, agentPath(r.AgentRef(ev.Agent), ""), nil
	case EpAgents:
		return http.MethodGet, fmt.Sprintf("/v1/agents?offset=%d&limit=%d", ev.Offset, ev.N), nil
	case EpProduct:
		p := r.ProductIDs[ev.Product%len(r.ProductIDs)]
		return http.MethodGet, "/v1/products/" + url.PathEscape(string(p)), nil
	case EpTopic:
		if len(r.TopicPaths) == 0 {
			return http.MethodGet, "/v1/stats", nil
		}
		tp := r.TopicPaths[ev.Topic%len(r.TopicPaths)]
		return http.MethodGet, "/v1/topics/" + url.PathEscape(tp), nil
	case EpStats:
		return http.MethodGet, "/v1/stats", nil
	case EpWriteJoin:
		j := joinerOrdinal(ev.Agent)
		b, _ := json.Marshal(map[string]any{
			"id": r.JoinerID(j), "name": fmt.Sprintf("joiner %d", j),
		})
		return http.MethodPost, "/v1/agents", b
	case EpWriteTrust:
		b, _ := json.Marshal(map[string]any{
			"peer": r.AgentRef(ev.Peer), "value": ev.Value,
		})
		return http.MethodPost, agentPath(r.AgentRef(ev.Agent), "/trust"), b
	case EpWriteRating:
		p := r.ProductIDs[ev.Product%len(r.ProductIDs)]
		b, _ := json.Marshal(map[string]any{"product": p, "value": ev.Value})
		return http.MethodPost, agentPath(r.AgentRef(ev.Agent), "/ratings"), b
	case EpWriteLeave:
		if ev.Peer != -1 {
			return http.MethodDelete,
				agentPath(r.AgentRef(ev.Agent), "/trust") + "?peer=" + url.QueryEscape(string(r.AgentRef(ev.Peer))), nil
		}
		p := r.ProductIDs[ev.Product%len(r.ProductIDs)]
		return http.MethodDelete,
			agentPath(r.AgentRef(ev.Agent), "/ratings") + "?product=" + url.QueryEscape(string(p)), nil
	default:
		return http.MethodGet, "/v1/healthz", nil
	}
}

// Client wraps a Target with the typed reads the attack-confinement
// measures need (it satisfies attack.Client).
type Client struct {
	T Target
	// Query is appended to every read as extra query parameters.
	// The confinement measures use "alpha=1" to pin pure trust
	// weighting, isolating the paper's trust-gating claim from the
	// serving default's similarity blend.
	Query string
}

func (c Client) withQuery(path string) string {
	if c.Query == "" {
		return path
	}
	return path + "&" + c.Query
}

type pageOf[T any] struct {
	Items []T `json:"items"`
}

func getList[T any](t Target, path string) ([]T, error) {
	status, body, _, err := t.Do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, truncate(body, 200))
	}
	var pg pageOf[T]
	if err := json.Unmarshal(body, &pg); err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return pg.Items, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

// Neighbors fetches the ranked trust neighborhood (n=0 means all).
func (c Client) Neighbors(id model.AgentID, n int) ([]attack.Peer, error) {
	return getList[attack.Peer](c.T, c.withQuery(agentPath(id, fmt.Sprintf("/neighbors?n=%d", n))))
}

// Recommendations fetches the agent's top-n recommendations.
func (c Client) Recommendations(id model.AgentID, n int) ([]core.Recommendation, error) {
	return getList[core.Recommendation](c.T, c.withQuery(agentPath(id, fmt.Sprintf("/recommendations?n=%d", n))))
}
