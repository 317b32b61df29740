package api

import (
	"expvar"
	"net/http"
	"path"
	"strconv"
	"strings"
	"time"

	"swrec/internal/engine"
	"swrec/internal/metrics"
)

// endpoint is one request's class: the handler family that serves it and
// the swrec_http counter family that accounts for it. The names match the
// load harness's endpoint names, so a BENCH_load.json report can be
// cross-checked against /v1/metrics counts.
type endpoint uint8

const (
	epOther endpoint = iota
	epHealthz
	epMetrics
	epStats
	epStrategies
	epAgents
	epWriteJoin
	epAgent
	epNeighbors
	epProfile
	epRecommendations
	epWriteTrust
	epDeleteTrust
	epWriteRating
	epDeleteRating
	epProduct
	epTopic
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	epOther:           "other",
	epHealthz:         "healthz",
	epMetrics:         "metrics",
	epStats:           "stats",
	epStrategies:      "strategies",
	epAgents:          "agents",
	epWriteJoin:       "write_join",
	epAgent:           "agent",
	epNeighbors:       "neighbors",
	epProfile:         "profile",
	epRecommendations: "recommendations",
	epWriteTrust:      "write_trust",
	epDeleteTrust:     "delete_trust",
	epWriteRating:     "write_rating",
	epDeleteRating:    "delete_rating",
	epProduct:         "product",
	epTopic:           "topic",
}

// handler serves one routed request against the snapshot pinned for it.
type handler func(s *Server, c *call, snap *engine.Snapshot)

// route is the routing table: one pass over the escaped path yields the
// endpoint class, its handler, and the still-escaped variable part of
// the path (the agent URI, product ID or topic path). The ID segment of
// /v1/agents/{uri} is an escaped URI, so the subtree action is the
// suffix of the escaped path. The method only picks the class where a
// path carries both a read and a write; whether a handler accepts the
// method is the handler's answer to give (405), after the checks that
// come before it.
func route(method, escapedPath string) (endpoint, handler, string) {
	if escapedPath == "*" {
		return epOther, (*Server).handleAsterisk, ""
	}
	p, ok := strings.CutPrefix(escapedPath, "/v1/")
	if !ok {
		return epOther, (*Server).handleNotFound, ""
	}
	switch p {
	case "healthz":
		return epHealthz, (*Server).handleHealthz, ""
	case "metrics":
		return epMetrics, (*Server).handleMetrics, ""
	case "stats":
		return epStats, (*Server).handleStats, ""
	case "strategies":
		return epStrategies, (*Server).handleStrategies, ""
	case "agents":
		if method == http.MethodPost {
			return epWriteJoin, (*Server).handleUpsertAgent, ""
		}
		return epAgents, (*Server).handleAgents, ""
	}
	if rest, ok := strings.CutPrefix(p, "agents/"); ok {
		if uri, ok := strings.CutSuffix(rest, "/recommendations"); ok {
			return epRecommendations, (*Server).handleRecommendations, uri
		}
		if uri, ok := strings.CutSuffix(rest, "/neighbors"); ok {
			return epNeighbors, (*Server).handleNeighbors, uri
		}
		if uri, ok := strings.CutSuffix(rest, "/profile"); ok {
			return epProfile, (*Server).handleProfile, uri
		}
		if uri, ok := strings.CutSuffix(rest, "/trust"); ok {
			if method == http.MethodDelete {
				return epDeleteTrust, (*Server).handleTrust, uri
			}
			return epWriteTrust, (*Server).handleTrust, uri
		}
		if uri, ok := strings.CutSuffix(rest, "/ratings"); ok {
			if method == http.MethodDelete {
				return epDeleteRating, (*Server).handleRatings, uri
			}
			return epWriteRating, (*Server).handleRatings, uri
		}
		return epAgent, (*Server).handleAgent, rest
	}
	if id, ok := strings.CutPrefix(p, "products/"); ok {
		return epProduct, (*Server).handleProduct, id
	}
	if topic, ok := strings.CutPrefix(p, "topics/"); ok {
		return epTopic, (*Server).handleTopic, topic
	}
	return epOther, (*Server).handleNotFound, ""
}

// movedTo keeps the two redirects http.ServeMux answered before it
// routed, so that dropping the mux changes no response: a path that is
// not its own path.Clean form (//, /./, /../) moves to it, and a subtree
// root asked for without its slash moves to the subtree. It returns ""
// for a path that stays, which path.Clean decides without allocating.
func movedTo(escapedPath string) string {
	p := escapedPath
	if p == "*" {
		return "" // refused, not moved (handleAsterisk)
	}
	if p == "" || p[0] != '/' {
		p = "/" + p
	}
	to := path.Clean(p)
	switch {
	case to == "/v1/products" || to == "/v1/topics":
		to += "/"
	case p[len(p)-1] == '/' && to != "/":
		to += "/" // Clean drops the trailing slash; the mux kept it
	}
	if to == escapedPath {
		return ""
	}
	return to
}

// apiStats aggregates request counters across all servers in the
// process, published as "swrec_api" (requests, request_ns, status_NNN).
var apiStats = expvar.NewMap("swrec_api")

// httpStats breaks the request counters down per endpoint class,
// published as "swrec_http". Keys are <endpoint>_requests,
// <endpoint>_errors (status ≥ 500), and one disjoint latency bucket
// <endpoint>_le_1ms | _le_10ms | _le_100ms | _le_1s | _gt_1s per
// request (le_10ms counts service times in (1ms, 10ms], not a
// cumulative histogram). Both maps count every request once, whether the
// response cache or a handler answered it.
var httpStats = expvar.NewMap("swrec_http")

var latencyBuckets = [...]string{"le_1ms", "le_10ms", "le_100ms", "le_1s", "gt_1s"}

// latencyBucket picks the one swrec_http bucket d falls in.
func latencyBucket(d time.Duration) int {
	switch {
	case d <= time.Millisecond:
		return 0
	case d <= 10*time.Millisecond:
		return 1
	case d <= 100*time.Millisecond:
		return 2
	case d <= time.Second:
		return 3
	default:
		return 4
	}
}

// endpointCounters are one endpoint class's swrec_http counters.
type endpointCounters struct {
	requests, errors metrics.Counter
	latency          [len(latencyBuckets)]metrics.Counter
}

// endpointStats names every class's counters once, so that accounting
// for a request concatenates and looks up nothing.
var endpointStats = func() (c [numEndpoints]endpointCounters) {
	for ep, name := range endpointNames {
		c[ep].requests = metrics.NewCounter(httpStats, name+"_requests")
		c[ep].errors = metrics.NewCounter(httpStats, name+"_errors")
		for b, bucket := range latencyBuckets {
			c[ep].latency[b] = metrics.NewCounter(httpStats, name+"_"+bucket)
		}
	}
	return
}()

// The swrec_api counters of every request.
var (
	requestsStat  = metrics.NewCounter(apiStats, "requests")
	requestNsStat = metrics.NewCounter(apiStats, "request_ns")
)

// statusStats are the swrec_api status_NNN counters of the statuses the
// handlers answer with.
var statusStats = [...]struct {
	status int
	metrics.Counter
}{
	{http.StatusOK, metrics.NewCounter(apiStats, "status_200")},
	{http.StatusAccepted, metrics.NewCounter(apiStats, "status_202")},
	{http.StatusMovedPermanently, metrics.NewCounter(apiStats, "status_301")},
	{http.StatusBadRequest, metrics.NewCounter(apiStats, "status_400")},
	{http.StatusNotFound, metrics.NewCounter(apiStats, "status_404")},
	{http.StatusMethodNotAllowed, metrics.NewCounter(apiStats, "status_405")},
	{http.StatusConflict, metrics.NewCounter(apiStats, "status_409")},
	{http.StatusInternalServerError, metrics.NewCounter(apiStats, "status_500")},
	{http.StatusServiceUnavailable, metrics.NewCounter(apiStats, "status_503")},
	{http.StatusGatewayTimeout, metrics.NewCounter(apiStats, "status_504")},
}

// statusOK is the counter of a 200, the one a stored hit books.
var statusOK = &statusStats[0].Counter

// statusStat is the swrec_api counter of a response status. A status no
// handler answers with gets a counter of its own, resolved through the
// map on its one Add.
func statusStat(status int) *metrics.Counter {
	for i := range statusStats {
		if statusStats[i].status == status {
			return &statusStats[i].Counter
		}
	}
	c := metrics.NewCounter(apiStats, "status_"+strconv.Itoa(status))
	return &c
}

// account books one finished request under swrec_api and swrec_http.
func account(ep endpoint, status int, st *metrics.Counter, elapsed time.Duration) {
	requestsStat.Add(1)
	requestNsStat.Add(elapsed.Nanoseconds())
	st.Add(1)
	c := &endpointStats[ep]
	c.requests.Add(1)
	if status >= 500 {
		c.errors.Add(1)
	}
	c.latency[latencyBucket(elapsed)].Add(1)
}
