package api

import (
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
// process, published as "swrec_api": status_NNN, and requests and
// request_ns, the count and sum of every swrec_http histogram.
var apiStats = metrics.NewMap("api")

// httpStats breaks the request counters down per endpoint class,
// published as "swrec_http": <endpoint>_errors (status ≥ 500) and the
// keys of the class's latency histogram (see metrics.Map.Histogram).
// Both maps count every request once, whether the response cache or a
// handler answered it.
var httpStats = metrics.NewMap("http")

// endpointCounters are one endpoint class's swrec_http metrics.
type endpointCounters struct {
	errors  *metrics.Counter
	latency *metrics.Histogram
}

// endpointStats names every class's metrics once, so that accounting
// for a request concatenates and looks up nothing.
var endpointStats = func() (c [numEndpoints]endpointCounters) {
	for ep, name := range endpointNames {
		c[ep].errors = httpStats.Counter(name + "_errors")
		c[ep].latency = httpStats.Histogram(name)
	}
	apiStats.Totals(httpStats)
	return
}()

// statusStats are the swrec_api status_NNN counters, by status code.
var statusStats = func() (c [600]*metrics.Counter) {
	for status := range c {
		c[status] = apiStats.Counter("status_" + strconv.Itoa(status))
	}
	return
}()

// statusOK is the counter of a 200, the one a stored hit books.
var statusOK = statusStats[http.StatusOK]

// statusStat is the swrec_api counter of a response status.
func statusStat(status int) *metrics.Counter {
	if status < len(statusStats) {
		return statusStats[status]
	}
	return apiStats.Counter("status_" + strconv.Itoa(status))
}

// account books one finished request under swrec_api and swrec_http.
func account(ep endpoint, status int, st *metrics.Counter, elapsed time.Duration) {
	st.Add(1)
	c := &endpointStats[ep]
	if status >= 500 {
		c.errors.Add(1)
	}
	c.latency.Record(elapsed)
}
