// Package api exposes the recommender over a JSON HTTP API — the
// deployment surface a §4-style installation offers its own user
// interface once the crawler has materialized a community. The server is
// a thin handler layer over internal/engine: every request pins one
// immutable snapshot, once, in ServeHTTP, so responses are consistent
// even while a background crawler publishes updated views via
// Engine.Swap. One function, route, maps a path to its endpoint class
// and handler. Read endpoints:
//
//	GET /v1/healthz                        serving status: epoch, counts, uptime
//	GET /v1/metrics                        the swrec_* maps and nothing else (internal/metrics): counters, latency summaries read per request
//	GET /v1/stats                          community + taxonomy statistics
//	GET /v1/strategies                     the configured strategy ladder
//	GET /v1/agents?offset=0&limit=25       agent directory by trust out-degree
//	GET /v1/agents/{uri}                   one agent's statements
//	GET /v1/agents/{uri}/neighbors?n=25&metric=&alpha=&measure=&strategy=
//	GET /v1/agents/{uri}/profile?n=15      top taxonomy interests
//	GET /v1/agents/{uri}/recommendations?n=10&novel=1&theta=0.4&metric=&alpha=&measure=&strategy=
//	GET /v1/products/{id}                  catalog entry
//	GET /v1/topics/{path}?offset=0&limit=50  products in a taxonomy branch
//
// A server built with NewWritable additionally accepts first-party
// mutations through the durable ingest pipeline (internal/ingest); a
// server built with New stays read-only and answers 405 to every write:
//
//	POST   /v1/agents                      {"id", "name"} upsert an agent
//	POST   /v1/agents/{uri}/trust          {"peer", "value"} assert trust in [-1,1]
//	DELETE /v1/agents/{uri}/trust?peer=    retract a trust edge
//	POST   /v1/agents/{uri}/ratings        {"product", "value"} rate in [-1,1]
//	DELETE /v1/agents/{uri}/ratings?product=  retract a rating
//
// Writes are validated against the pinned snapshot (rating targets must
// be cataloged products or checksum-valid urn:isbn: URNs), appended to
// the write-ahead log, and acknowledged with 202 Accepted and the
// assigned WAL sequence number once durable. Visibility is at the next
// epoch swap, so a read-after-write may briefly see the previous state;
// a full ingest queue fails fast with 503 overloaded.
//
// Agent URIs and product IDs arrive URL-escaped in the path.
//
// Responses use a uniform envelope (the breaking v1 revision noted in
// CHANGES.md): errors are {"error": {"code", "message"}} with
// machine-readable codes (invalid_argument, not_found, no_taxonomy,
// method_not_allowed, internal); list-shaped responses are
// {"items": [...], "total": N} with real offset/limit pagination on
// /v1/agents and /v1/topics/{path}.
//
// Per-request pipeline overrides on neighbors and recommendations —
// metric=appleseed|advogato|pathtrust|none, alpha=[0,1],
// measure=pearson|cosine — are validated eagerly (400 invalid_argument)
// and served from override-specific engine caches.
//
// Neighbors and recommendations are answered through the engine's
// strategy ladder (internal/strategy): every response carries a
// "strategy" provenance block naming the procedure that produced it,
// the full rung attempt trace, and the answering epoch. The strategy=
// parameter pins one rung (strategy=popularity) or excludes rungs
// (strategy=-popularity,-degraded-cache), validated like the other
// overrides; GET /v1/strategies lists the configured ladder. A degraded
// answer is marked in the block (strategy.degraded, .source, .epoch).
//
// # Response cache
//
// Within one epoch the community is fixed, so a read's response is a
// function of (snapshot, URL). The pinned snapshot keeps the encoded
// bodies (engine.Snapshot.Body/StoreBody: SIEVE, ~8 MiB per snapshot,
// entries over 64 KiB refused), keyed by URL.Path/RawPath/RawQuery as
// they arrived. ServeHTTP probes it for every GET and HEAD before
// routing; a hit writes the stored bytes and books the same swrec_api
// and swrec_http counters, a miss runs the handler against the same
// pinned snapshot and stores what it wrote. The bytes are the ones the
// handler encoded either way, so a hit is byte-identical to the miss that
// stored it. There is no invalidation: bodies embed their epoch, are
// never carried across a swap and never reach a checkpoint.
//
// Stored: 200 responses of stats, strategies, the agent directory, agent
// detail, neighbors, profile, recommendations, products and topics. Not
// stored: any other status; /v1/healthz and /v1/metrics (uptime,
// counters); and a ladder answer the clock took part in — marked
// degraded, or with a deadline outcome anywhere in its attempt trace. A
// consequence for observability: the swrec_strategy and per-stage
// swrec_engine counters now count handler runs, i.e. body misses, while
// swrec_api and swrec_http keep counting every request
// (swrec_engine.body_hit/body_miss/body_bytes tell the two apart).
//
// # Encoding
//
// Every 200 but /v1/metrics (metrics.Handler's compact body) is what
// encoding/json's Encoder writes with a two-space indent. The five shapes the serving mix asks for — recommendations,
// neighbors, profile, agent detail, product — are written by the
// append-style encoders of encode.go into a pooled buffer
// (writeEncoded); everything else (stats, strategies, healthz, the agent
// directory, topics, errors, write acknowledgements) goes through
// encoding/json (writeJSON, writeError). No shape has both: encoding/json
// is the hand-written encoders' test oracle, byte for byte, not their
// fallback.
package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"encoding/json"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/metrics"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/strategy"
	"swrec/internal/taxonomy"
	"swrec/internal/wal"
)

// Writer is the slice of the ingest pipeline the API needs: durable
// acknowledgement of one validated mutation. *ingest.Pipeline satisfies
// it; tests may substitute fakes.
type Writer interface {
	Submit(m wal.Mutation) (uint64, error)
}

// QueueReporter is the optional Writer extension the overload path uses
// to derive a Retry-After hint from the actual backlog instead of a
// constant. *ingest.Pipeline satisfies it.
type QueueReporter interface {
	QueueStats() (depth, capacity int)
}

// Config tunes the server's resilience behavior.
type Config struct {
	// ReadBudget caps the server-side computation time of every read
	// request, compounding with whatever deadline the client's own
	// context carries (the tighter of the two wins). A request that
	// misses the budget gets a degraded cached answer when one exists,
	// else 504 deadline_exceeded. 0 means only the client's context
	// bounds the request.
	ReadBudget time.Duration
}

// Server is the HTTP handler layer over one serving engine.
type Server struct {
	eng    *engine.Engine
	writer Writer // nil = read-only surface
	cfg    Config
}

// New creates a read-only API server over an already validated engine.
func New(eng *engine.Engine) *Server { return NewWithConfig(eng, nil, Config{}) }

// NewWritable creates the API server with the write endpoints backed by
// w (normally the *ingest.Pipeline). A nil w yields a read-only server.
func NewWritable(eng *engine.Engine, w Writer) *Server { return NewWithConfig(eng, w, Config{}) }

// NewWithConfig creates the API server with explicit resilience
// configuration.
func NewWithConfig(eng *engine.Engine, w Writer, cfg Config) *Server {
	return &Server{eng: eng, writer: w, cfg: cfg}
}

// call is one request on its way through a handler: the client's
// ResponseWriter, wrapped to record the status and — while keep holds —
// to keep the encoded 200 body for the snapshot's response cache; the
// request; and the still-escaped variable path segment route cut out.
type call struct {
	http.ResponseWriter
	r      *http.Request
	arg    string
	status int
	keep   bool
	body   []byte
}

func (c *call) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *call) Write(p []byte) (int, error) {
	if c.keep {
		if c.status == http.StatusOK && len(c.body)+len(p) <= engine.MaxBodyEntry {
			c.body = append(c.body, p...)
		} else {
			c.noStore()
		}
	}
	return c.ResponseWriter.Write(p)
}

// noStore marks the response as one that must not be replayed: it
// depends on the clock (uptime, counters, a missed deadline, what
// happened to be cached when the budget ran out) and not only on the
// snapshot and the URL. Handlers call it before they write.
func (c *call) noStore() { c.keep, c.body = false, nil }

// param returns the first value of a query parameter, "" when absent:
// url.Values.Get over url.ParseQuery — pairs holding a semicolon or a
// malformed escape are skipped, as there — without building the map. A
// request reads three or four parameters out of a query of as many.
func (c *call) param(name string) string {
	query := c.r.URL.RawQuery
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if key, err := url.QueryUnescape(key); err != nil || key != name {
			continue
		}
		if value, err := url.QueryUnescape(value); err == nil {
			return value
		}
	}
	return ""
}

// ServeHTTP implements http.Handler. It pins the engine's snapshot once;
// everything the request reads, and the response cache it is answered
// from or stored into, belongs to that snapshot, so a concurrent Swap
// never mixes epochs within one request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	snap := s.eng.Snapshot()
	read := r.Method == http.MethodGet || r.Method == http.MethodHead
	write := r.Method == http.MethodPost || r.Method == http.MethodDelete
	if read && serveStored(w, r.URL, snap, start) {
		return
	}
	escaped := r.URL.EscapedPath()
	ep, h, arg := route(r.Method, escaped)
	if to := movedTo(escaped); to != "" {
		h, arg = (*Server).handleMoved, to
	}
	c := &call{ResponseWriter: w, r: r, arg: arg, status: http.StatusOK, keep: read}
	switch {
	case read, write && s.writer != nil:
		h(s, c, snap)
	case write:
		writeError(c, http.StatusMethodNotAllowed, "method_not_allowed", "read-only API")
	default:
		writeError(c, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not supported", r.Method))
	}
	if c.body != nil { // Write keeps only what followed a 200
		snap.StoreBody(r.URL.Path, r.URL.RawPath, r.URL.RawQuery, uint8(ep), c.body)
	}
	account(ep, c.status, statusStat(c.status), time.Since(start))
}

const jsonContentType = "application/json"

// serveStored answers a read from the pinned snapshot's response cache:
// the bytes a handler encoded for this URL earlier in the epoch, and the
// same accounting. It reports false, having written nothing, when the
// snapshot holds no such response.
//
//swrec:hotpath
func serveStored(w http.ResponseWriter, u *url.URL, snap *engine.Snapshot, start time.Time) bool {
	body, tag, ok := snap.Body(u.Path, u.RawPath, u.RawQuery)
	if !ok {
		return false
	}
	setJSONContentType(w.Header())
	_, _ = w.Write(body) // a failed write is the client's loss, as on the encoder path
	account(endpoint(tag), http.StatusOK, statusOK, time.Since(start))
	return true
}

// setJSONContentType declares a JSON body. Header.Set allocates its
// one-element value slice; a writer that already says JSON (a reused one)
// is left alone.
//
//swrec:hotpath
func setJSONContentType(h http.Header) {
	if ct := h["Content-Type"]; len(ct) != 1 || ct[0] != jsonContentType {
		h.Set("Content-Type", jsonContentType)
	}
}

// requestCtx derives the context bounding one read request: the
// client's own context (disconnect, client-set deadline) tightened by
// the server's ReadBudget when one is configured.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.ReadBudget > 0 {
		return context.WithTimeout(r.Context(), s.cfg.ReadBudget)
	}
	return r.Context(), func() {}
}

// deadlineHit reports whether err means the request ran out of time
// rather than failing on its own terms.
func deadlineHit(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// requireRead rejects write methods on read-only endpoints. With a
// writer configured the global gate admits POST/DELETE, so each read
// handler applies this guard.
func requireRead(c *call) bool {
	if c.r.Method == http.MethodGet || c.r.Method == http.MethodHead {
		return true
	}
	methodNotAllowed(c)
	return false
}

func methodNotAllowed(c *call) {
	writeError(c, http.StatusMethodNotAllowed, "method_not_allowed",
		fmt.Sprintf("%s does not accept %s", c.r.URL.Path, c.r.Method))
}

// handleNotFound answers paths outside the routing table the way
// http.ServeMux did.
func (s *Server) handleNotFound(c *call, _ *engine.Snapshot) { http.NotFound(c, c.r) }

// handleAsterisk refuses the request target "*" as http.ServeMux did: a
// 400 with no body, closing an HTTP/1.1 connection after it.
func (s *Server) handleAsterisk(c *call, _ *engine.Snapshot) {
	if c.r.ProtoAtLeast(1, 1) {
		c.Header().Set("Connection", "close")
	}
	c.WriteHeader(http.StatusBadRequest)
}

// handleMoved redirects to the path movedTo chose, spelled the way
// http.ServeMux spelled it.
func (s *Server) handleMoved(c *call, _ *engine.Snapshot) {
	to := url.URL{Path: c.arg, RawQuery: c.r.URL.RawQuery}
	http.Redirect(c, c.r, to.String(), http.StatusMovedPermanently)
}

func (s *Server) handleMetrics(c *call, _ *engine.Snapshot) {
	if !requireRead(c) {
		return
	}
	c.noStore()
	metrics.Handler().ServeHTTP(c, c.r)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// page is the uniform list envelope. Offset/Limit echo the effective
// pagination window; endpoints without windowed pagination omit them.
// Strategy is the provenance block of ladder-answered endpoints
// (neighbors, recommendations): the procedure that produced the answer,
// the rung attempt trace, and the answering epoch — including the
// degraded marker when the bottom rung served from a previous-epoch
// cache.
type page struct {
	Items    any              `json:"items"`
	Total    int              `json:"total"`
	Offset   *int             `json:"offset,omitempty"`
	Limit    *int             `json:"limit,omitempty"`
	Strategy *strategy.Result `json:"strategy,omitempty"`
}

// writeJSON is the reflective encoder: the entry point for every 200
// shape outside the serving mix (stats, strategies, healthz, the agent
// directory, topics). The five shapes of the mix go through writeEncoded.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", jsonContentType)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeEncoded sends the body encode — one of encode.go's append-style
// encoders, bound to its answer — appends to a pooled buffer. encode
// reporting false (the answer held a float encoding/json has no number
// for) sends nothing, which is what json.Encoder did with such a value.
func (c *call) writeEncoded(encode func(b []byte) ([]byte, bool)) {
	setJSONContentType(c.Header())
	buf := encodeBufs.Get().(*[]byte)
	b, ok := encode((*buf)[:0])
	if ok {
		_, _ = c.Write(b)
	}
	*buf = b
	encodeBufs.Put(buf)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(status)
	var body errorBody
	body.Error.Code, body.Error.Message = code, msg
	_ = json.NewEncoder(w).Encode(body)
}

// answeredBy is where a ladder answer's provenance decides whether the
// response may be replayed from the response cache.
func (c *call) answeredBy(res *strategy.Result) {
	if !repeatable(res) {
		c.noStore()
	}
}

// repeatable reports whether a ladder answer is a function of the
// snapshot and the request alone, so that the same request would walk the
// ladder to the same answer for as long as the snapshot serves. It is not
// once the clock took part: the degraded-cache rung answered (from
// whatever other requests had left in the caches), or some rung ran out
// of request or compute budget — which also covers the 200 with no items
// that an exhausted ladder returns when only a flight's own budget, not
// the request's, expired.
func repeatable(res *strategy.Result) bool {
	if res.Degraded {
		return false
	}
	for _, a := range res.Attempts {
		if a.Outcome == strategy.OutcomeDeadline {
			return false
		}
	}
	return true
}

// writePage emits the items envelope with its pagination window.
func writePage(w http.ResponseWriter, items any, total, offset, limit int) {
	writeJSON(w, page{Items: items, Total: total, Offset: &offset, Limit: &limit})
}

// intParam parses a non-negative integer query parameter. A malformed or
// negative value is a validation error, not a silent default.
func intParam(c *call, name string, def int) (int, error) {
	v := c.param(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", name, v)
	}
	return n, nil
}

// pageParams reads the offset/limit pagination window. limit = 0 means
// "no cap" and pages to the end.
func pageParams(c *call, defLimit int) (offset, limit int, err error) {
	if offset, err = intParam(c, "offset", 0); err != nil {
		return 0, 0, err
	}
	if limit, err = intParam(c, "limit", defLimit); err != nil {
		return 0, 0, err
	}
	return offset, limit, nil
}

// window applies the pagination window to a slice of length n, returning
// the clamped [lo, hi) bounds. It compares limit with what is left rather
// than adding it to offset, which wraps for a limit near MaxInt.
func window(n, offset, limit int) (lo, hi int) {
	if offset > n {
		offset = n
	}
	hi = n
	if limit > 0 && limit < n-offset {
		hi = offset + limit
	}
	return offset, hi
}

// overrides parses the per-request pipeline override parameters shared
// by the neighbors and recommendations endpoints.
func parseOverrides(c *call) (engine.Overrides, error) {
	var ov engine.Overrides
	if v := c.param("metric"); v != "" {
		m, err := core.ParseMetric(v)
		if err != nil {
			return ov, err
		}
		ov.Metric = &m
	}
	if v := c.param("alpha"); v != "" {
		a, err := strconv.ParseFloat(v, 64)
		if err != nil || !(a >= 0 && a <= 1) { // ParseFloat accepts "NaN", which fails every comparison
			return ov, fmt.Errorf("alpha must be in [0,1], got %q", v)
		}
		ov.Alpha = &a
	}
	if v := c.param("measure"); v != "" {
		m, err := cf.ParseMeasure(v)
		if err != nil {
			return ov, err
		}
		ov.Measure = &m
	}
	switch v := c.param("novel"); v {
	case "", "0":
	case "1":
		c := core.NovelCategories
		ov.Content = &c
	default:
		return ov, fmt.Errorf("novel must be 0 or 1, got %q", v)
	}
	return ov, nil
}

func (s *Server) handleHealthz(c *call, snap *engine.Snapshot) {
	if !requireRead(c) {
		return
	}
	c.noStore()
	comm := snap.Community()
	writeJSON(c, map[string]any{
		"status":        "ok",
		"epoch":         snap.Epoch(),
		"agents":        comm.NumAgents(),
		"products":      comm.NumProducts(),
		"uptimeSeconds": s.eng.Uptime().Seconds(),
	})
}

func (s *Server) handleStats(c *call, snap *engine.Snapshot) {
	if !requireRead(c) {
		return
	}
	comm := snap.Community()
	type stats struct {
		Epoch     uint64          `json:"epoch"`
		Community model.Stats     `json:"community"`
		Taxonomy  *taxonomy.Stats `json:"taxonomy,omitempty"`
	}
	out := stats{Epoch: snap.Epoch(), Community: comm.ComputeStats()}
	if tax := comm.Taxonomy(); tax != nil {
		ts := tax.ComputeStats()
		out.Taxonomy = &ts
	}
	writeJSON(c, out)
}

// handleStrategies lists the configured strategy ladder in rung order:
// each entry carries the procedure name, its declarative precondition,
// and whether the rung is enabled. Clients use the names here to build
// `strategy=` selector overrides.
func (s *Server) handleStrategies(c *call, _ *engine.Snapshot) {
	if !requireRead(c) {
		return
	}
	rungs := s.eng.Ladder().Rungs()
	writeJSON(c, page{Items: rungs, Total: len(rungs)})
}

// agentSummary is the list view of one agent.
type agentSummary struct {
	ID       model.AgentID `json:"id"`
	Name     string        `json:"name,omitempty"`
	TrustOut int           `json:"trustOut"`
	Ratings  int           `json:"ratings"`
}

func summarize(comm *model.Community, id model.AgentID) agentSummary {
	a := comm.Agent(id)
	return agentSummary{ID: id, Name: a.Name,
		TrustOut: len(a.TrustedPeers()), Ratings: len(a.RatedProducts())}
}

func (s *Server) handleAgents(c *call, snap *engine.Snapshot) {
	if !requireRead(c) {
		return
	}
	offset, limit, err := pageParams(c, 25)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	ids := snap.AgentsByTrustOut()
	lo, hi := window(len(ids), offset, limit)
	shown := ids[lo:hi]
	items := make([]agentSummary, 0, len(shown))
	for _, id := range shown {
		items = append(items, summarize(snap.Community(), id))
	}
	writePage(c, items, len(ids), offset, limit)
}

// agentOf resolves the {uri} segment of /v1/agents/{uri}[/action]
// against the snapshot, answering 400 or 404 itself.
func agentOf(c *call, snap *engine.Snapshot) (*model.Agent, bool) {
	uri, err := url.PathUnescape(c.arg)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", "malformed agent URI")
		return nil, false
	}
	a := snap.Community().Agent(model.AgentID(uri))
	if a == nil {
		writeError(c, http.StatusNotFound, "not_found", fmt.Sprintf("unknown agent %s", uri))
		return nil, false
	}
	return a, true
}

// handleAgent serves GET /v1/agents/{uri}: one agent's statements.
func (s *Server) handleAgent(c *call, snap *engine.Snapshot) {
	a, ok := agentOf(c, snap)
	if !ok || !requireRead(c) {
		return
	}
	c.writeEncoded(func(b []byte) ([]byte, bool) { return appendAgent(b, snap.Community(), a) })
}

// parseSelector validates the strategy= per-request ladder override
// against the engine's configured ladder.
func (s *Server) parseSelector(c *call) (strategy.Selector, error) {
	return strategy.ParseSelector(c.param("strategy"), s.eng.Ladder())
}

func (s *Server) handleNeighbors(c *call, snap *engine.Snapshot) {
	peers, total, res, ok := s.neighbors(c, snap)
	if !ok {
		return
	}
	// The ranking names its peers by ordinal. A degraded answer may come
	// from a snapshot newer than snap, and ordinals only grow along the
	// engine's lineage, so the newest community names every peer of it.
	comm := snap.Community()
	if res.Degraded {
		comm = s.eng.Snapshot().Community()
	}
	c.writeEncoded(func(b []byte) ([]byte, bool) { return appendNeighbors(b, peers, comm, total, res) })
}

// neighbors answers /neighbors up to the encoding: the shown prefix of
// the ladder's ranking, its full length, and the provenance. ok false
// means the error response is already written.
func (s *Server) neighbors(c *call, snap *engine.Snapshot) (peers []core.PeerRank, total int, res *strategy.Result, ok bool) {
	a, ok := agentOf(c, snap)
	if !ok || !requireRead(c) {
		return nil, 0, nil, false
	}
	ov, err := parseOverrides(c)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return nil, 0, nil, false
	}
	sel, err := s.parseSelector(c)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return nil, 0, nil, false
	}
	n, err := intParam(c, "n", 25)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return nil, 0, nil, false
	}
	ctx, cancel := s.requestCtx(c.r)
	defer cancel()
	peers, res, err = s.eng.RankedPeersLadder(ctx, snap, a.ID, ov, sel)
	if err != nil {
		writeEngineError(c, err)
		return nil, 0, nil, false
	}
	c.answeredBy(res)
	total = len(peers)
	if n > 0 && len(peers) > n {
		peers = peers[:n]
	}
	return peers, total, res, true
}

func (s *Server) handleProfile(c *call, snap *engine.Snapshot) {
	prof, top, ok := s.profile(c, snap)
	if !ok {
		return
	}
	c.writeEncoded(func(b []byte) ([]byte, bool) {
		return appendProfile(b, prof, top, snap.Community().Taxonomy())
	})
}

// profile answers /profile up to the encoding: the agent's compiled
// profile row and the positions of its n heaviest topics.
func (s *Server) profile(c *call, snap *engine.Snapshot) (prof *profmat.Row, top []int32, ok bool) {
	a, ok := agentOf(c, snap)
	if !ok || !requireRead(c) {
		return nil, nil, false
	}
	n, err := intParam(c, "n", 15)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return nil, nil, false
	}
	ctx, cancel := s.requestCtx(c.r)
	defer cancel()
	prof, err = snap.ProfileCtx(ctx, a.ID)
	if err != nil {
		writeEngineError(c, err)
		return nil, nil, false
	}
	// n is the client's to choose; the profile bounds what it can ask for.
	return prof, prof.TopK(n), true
}

func (s *Server) handleRecommendations(c *call, snap *engine.Snapshot) {
	recs, res, ok := s.recommendations(c, snap)
	if !ok {
		return
	}
	c.writeEncoded(func(b []byte) ([]byte, bool) {
		return appendRecommendations(b, recs, snap.Community(), res)
	})
}

// recommendations answers /recommendations up to the encoding: the
// ladder's (optionally diversified) list and its provenance.
func (s *Server) recommendations(c *call, snap *engine.Snapshot) (recs []core.Recommendation, res *strategy.Result, ok bool) {
	a, ok := agentOf(c, snap)
	if !ok || !requireRead(c) {
		return nil, nil, false
	}
	ov, err := parseOverrides(c)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return nil, nil, false
	}
	n, err := intParam(c, "n", 10)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return nil, nil, false
	}
	// No answer is longer than the catalog. Clamping here keeps n*5 below
	// from overflowing and n inside the engine's int32 result-cache key.
	n = min(n, snap.Community().NumProducts())
	theta := 0.0
	if v := c.param("theta"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0 && f <= 1) { // as alpha: NaN is not in range
			writeError(c, http.StatusBadRequest, "invalid_argument", "theta must be in [0,1]")
			return nil, nil, false
		}
		theta = f
	}
	// With diversification, rank a deeper candidate pool first.
	fetchN := n
	if theta > 0 && n > 0 {
		fetchN = n * 5
	}
	sel, err := s.parseSelector(c)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return nil, nil, false
	}
	ctx, cancel := s.requestCtx(c.r)
	defer cancel()
	recs, res, err = s.eng.RecommendLadder(ctx, snap, a.ID, fetchN, ov, sel)
	if err != nil {
		writeEngineError(c, err)
		return nil, nil, false
	}
	if theta > 0 {
		rec, err := snap.RecommenderFor(ov)
		if err != nil {
			writeEngineError(c, err)
			return nil, nil, false
		}
		recs = rec.Diversify(recs, n, theta)
	}
	c.answeredBy(res)
	return recs, res, true
}

func (s *Server) handleProduct(c *call, snap *engine.Snapshot) {
	if !requireRead(c) {
		return
	}
	idRaw, err := url.PathUnescape(c.arg)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", "malformed product ID")
		return
	}
	p := snap.Community().Product(model.ProductID(idRaw))
	if p == nil {
		writeError(c, http.StatusNotFound, "not_found", fmt.Sprintf("unknown product %s", idRaw))
		return
	}
	c.writeEncoded(func(b []byte) ([]byte, bool) {
		return appendProduct(b, p, snap.Community().Taxonomy()), true
	})
}

// handleTopic browses a taxonomy branch: products whose descriptors fall
// into the topic (by qualified path, root name included) or below it,
// read off the snapshot's topic index and paged with offset/limit.
func (s *Server) handleTopic(c *call, snap *engine.Snapshot) {
	if !requireRead(c) {
		return
	}
	tax := snap.Community().Taxonomy()
	if tax == nil {
		writeError(c, http.StatusConflict, "no_taxonomy", "community has no taxonomy")
		return
	}
	path, err := url.PathUnescape(c.arg)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", "malformed topic path")
		return
	}
	offset, limit, err := pageParams(c, 50)
	if err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	d, ok := tax.Lookup(path)
	if !ok {
		writeError(c, http.StatusNotFound, "not_found", fmt.Sprintf("unknown topic %s", path))
		return
	}
	pids := snap.TopicIndex().Subtree(d)
	total := len(pids)
	lo, hi := window(total, offset, limit)
	shown := pids[lo:hi]
	type entry struct {
		ID    model.ProductID `json:"id"`
		Title string          `json:"title,omitempty"`
	}
	type topicPage struct {
		Topic  string  `json:"topic"`
		Items  []entry `json:"items"`
		Total  int     `json:"total"`
		Offset int     `json:"offset"`
		Limit  int     `json:"limit"`
	}
	out := topicPage{Topic: tax.QualifiedName(d), Total: total, Offset: offset, Limit: limit,
		Items: make([]entry, 0, len(shown))}
	for _, pid := range shown {
		e := entry{ID: pid}
		if p := snap.Community().Product(pid); p != nil {
			e.Title = p.Title
		}
		out.Items = append(out.Items, e)
	}
	writeJSON(c, out)
}

// maxWriteBody bounds write request bodies; mutations are tiny.
const maxWriteBody = 1 << 16

// accepted is the 202 envelope for durable write acknowledgements.
type accepted struct {
	Status string `json:"status"`
	Seq    uint64 `json:"seq"`
}

// decodeBody strictly parses a small JSON request body into dst.
func decodeBody(c *call, dst any) bool {
	dec := json.NewDecoder(io.LimitReader(c.r.Body, maxWriteBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(c, http.StatusBadRequest, "invalid_argument",
			fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

// submit validates the mutation against the pinned snapshot, hands it to
// the ingest pipeline, and acknowledges durability with 202 and the
// assigned WAL sequence number.
func (s *Server) submit(w http.ResponseWriter, snap *engine.Snapshot, m wal.Mutation) {
	if err := ingest.ValidateIn(snap.Community(), m); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	seq, err := s.writer.Submit(m)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(accepted{Status: "accepted", Seq: seq})
}

// handleTrust serves POST and DELETE /v1/agents/{uri}/trust.
func (s *Server) handleTrust(c *call, snap *engine.Snapshot) {
	a, ok := agentOf(c, snap)
	if !ok {
		return
	}
	switch c.r.Method {
	case http.MethodPost:
		var body struct {
			Peer  model.AgentID `json:"peer"`
			Value float64       `json:"value"`
		}
		if !decodeBody(c, &body) {
			return
		}
		s.submit(c, snap, wal.Mutation{Op: wal.OpUpsertTrust, Agent: a.ID, Peer: body.Peer, Value: body.Value})
	case http.MethodDelete:
		peer := c.param("peer")
		if peer == "" {
			writeError(c, http.StatusBadRequest, "invalid_argument", "peer query parameter required")
			return
		}
		s.submit(c, snap, wal.Mutation{Op: wal.OpDeleteTrust, Agent: a.ID, Peer: model.AgentID(peer)})
	default:
		methodNotAllowed(c)
	}
}

// handleRatings serves POST and DELETE /v1/agents/{uri}/ratings.
func (s *Server) handleRatings(c *call, snap *engine.Snapshot) {
	a, ok := agentOf(c, snap)
	if !ok {
		return
	}
	switch c.r.Method {
	case http.MethodPost:
		var body struct {
			Product model.ProductID `json:"product"`
			Value   float64         `json:"value"`
		}
		if !decodeBody(c, &body) {
			return
		}
		s.submit(c, snap, wal.Mutation{Op: wal.OpUpsertRating, Agent: a.ID, Product: body.Product, Value: body.Value})
	case http.MethodDelete:
		product := c.param("product")
		if product == "" {
			writeError(c, http.StatusBadRequest, "invalid_argument", "product query parameter required")
			return
		}
		s.submit(c, snap, wal.Mutation{Op: wal.OpDeleteRating, Agent: a.ID, Product: model.ProductID(product)})
	default:
		methodNotAllowed(c)
	}
}

// handleUpsertAgent serves POST /v1/agents.
func (s *Server) handleUpsertAgent(c *call, snap *engine.Snapshot) {
	var body struct {
		ID   model.AgentID `json:"id"`
		Name string        `json:"name"`
	}
	if !decodeBody(c, &body) {
		return
	}
	s.submit(c, snap, wal.Mutation{Op: wal.OpUpsertAgent, Agent: body.ID, Name: body.Name})
}

// retryAfter derives the Retry-After hint from the writer's queue
// backlog: an almost-empty queue suggests a transient spike (retry in
// 1s), a saturated one a real backlog (up to 8s). Writers that don't
// report queue depth get the conservative 1s.
func (s *Server) retryAfter() string {
	qr, ok := s.writer.(QueueReporter)
	if !ok {
		return "1"
	}
	depth, capacity := qr.QueueStats()
	if capacity <= 0 {
		return "1"
	}
	secs := 1 + (7*depth+capacity/2)/capacity
	if secs > 8 {
		secs = 8
	}
	return strconv.Itoa(secs)
}

// writeSubmitError maps ingest pipeline errors onto the error envelope.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrInvalid):
		writeError(w, http.StatusBadRequest, "invalid_argument", err.Error())
	case errors.Is(err, ingest.ErrOverloaded):
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusServiceUnavailable, "overloaded", "ingest queue full, retry later")
	case errors.Is(err, ingest.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "unavailable", "write pipeline is shut down")
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// writeEngineError maps engine/core errors onto the error envelope.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrUnknownAgent):
		writeError(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, engine.ErrNoTaxonomy):
		writeError(w, http.StatusConflict, "no_taxonomy", err.Error())
	case deadlineHit(err):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"request deadline exceeded before the computation finished")
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}
