package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/strategy"
)

// strategyPage decodes the envelope's strategy block plus the raw body so
// tests can assert on field absence.
type strategyPage struct {
	Items    []json.RawMessage `json:"items"`
	Total    int               `json:"total"`
	Strategy *strategy.Result  `json:"strategy"`
}

// newFixtureServer builds a read-only server over a community with the
// hard-query fixtures injected.
func newFixtureServer(t *testing.T) (*Server, *model.Community, model.AgentID) {
	t.Helper()
	comm := testCommunity(t, 40, 60)
	coldID := datagen.InjectColdStart(comm)
	eng, err := engine.New(comm, core.Options{
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng), comm, coldID
}

// TestStrategyBlockOnEveryRead is the provenance acceptance test: every
// recommendations and neighbors response carries the strategy block, and
// the legacy degraded fields are gone without the compat flag.
func TestStrategyBlockOnEveryRead(t *testing.T) {
	s, comm, _ := newTestServer(t)
	agent := comm.Agents()[0]
	for _, suffix := range []string{"/recommendations", "/neighbors"} {
		var out strategyPage
		if code := get(t, s, agentPath(agent, suffix), &out); code != http.StatusOK {
			t.Fatalf("%s status = %d", suffix, code)
		}
		if out.Strategy == nil {
			t.Fatalf("%s: no strategy block", suffix)
		}
		if out.Strategy.Procedure != strategy.FullSynthesis {
			t.Fatalf("%s: procedure = %s", suffix, out.Strategy.Procedure)
		}
		if len(out.Strategy.Attempts) == 0 || out.Strategy.Epoch != 1 {
			t.Fatalf("%s: strategy block = %+v", suffix, out.Strategy)
		}

		// Without the compat flag the deprecated fields are not emitted at
		// all (absent, not just false/empty).
		raw := doRaw(t, s, agentPath(agent, suffix))
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for _, legacy := range []string{"degraded", "degradedSource", "degradedEpoch"} {
			if _, ok := fields[legacy]; ok {
				t.Fatalf("%s: legacy field %q emitted without compat flag", suffix, legacy)
			}
		}
	}
}

func doRaw(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Body.Bytes()
}

// TestStrategyColdStartServedByPopularity walks the API path end to end
// for a cold-start agent: 200, non-empty, popularity rung reported.
func TestStrategyColdStartServedByPopularity(t *testing.T) {
	s, _, cold := newFixtureServer(t)
	var out strategyPage
	if code := get(t, s, agentPath(cold, "/recommendations"), &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.Strategy == nil || out.Strategy.Procedure != strategy.Popularity {
		t.Fatalf("strategy = %+v", out.Strategy)
	}
	if len(out.Items) == 0 {
		t.Fatal("cold-start agent got no recommendations")
	}
}

// TestStrategiesEndpoint lists the configured ladder.
func TestStrategiesEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t)
	var out struct {
		Items []strategy.Rung `json:"items"`
		Total int             `json:"total"`
	}
	if code := get(t, s, "/v1/strategies", &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.Total != len(strategy.Procedures) || len(out.Items) != out.Total {
		t.Fatalf("listing = %+v", out)
	}
	for i, r := range out.Items {
		if r.Procedure != strategy.Procedures[i] {
			t.Fatalf("rung %d = %s, want %s", i, r.Procedure, strategy.Procedures[i])
		}
		if !r.Enabled {
			t.Fatalf("rung %s listed disabled", r.Procedure)
		}
	}
}

// TestStrategyOverride pins and excludes rungs through the query
// parameter, and asserts the structured-error envelope on bad input.
func TestStrategyOverride(t *testing.T) {
	s, comm, _ := newTestServer(t)
	agent := comm.Agents()[0]

	var out strategyPage
	if code := get(t, s, agentPath(agent, "/recommendations?strategy=popularity"), &out); code != http.StatusOK {
		t.Fatalf("pin status = %d", code)
	}
	if out.Strategy == nil || out.Strategy.Procedure != strategy.Popularity {
		t.Fatalf("pinned strategy = %+v", out.Strategy)
	}

	out = strategyPage{}
	if code := get(t, s, agentPath(agent, "/recommendations?strategy=-full-synthesis"), &out); code != http.StatusOK {
		t.Fatalf("exclude status = %d", code)
	}
	if out.Strategy == nil || out.Strategy.Procedure == strategy.FullSynthesis {
		t.Fatalf("excluded rung answered: %+v", out.Strategy)
	}
	if out.Strategy.Attempts[0].Outcome != strategy.OutcomeExcluded {
		t.Fatalf("trace head = %+v", out.Strategy.Attempts[0])
	}

	for _, q := range []string{
		"strategy=bogus",
		"strategy=popularity,full-synthesis",
		"strategy=popularity,-full-synthesis",
		"strategy=-full-synthesis,-trust-hop-widening,-taxonomy-ancestor,-popularity,-degraded-cache",
	} {
		for _, suffix := range []string{"/recommendations?", "/neighbors?"} {
			if code := getError(t, s, agentPath(agent, suffix+q), http.StatusBadRequest); code != "invalid_argument" {
				t.Fatalf("%s%s error code = %q", suffix, q, code)
			}
		}
	}
}
