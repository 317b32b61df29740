package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/wal"
)

// newSlowServer builds a read-only server whose recommendation pipeline
// sleeps for the duration stored in delay (nanoseconds) at stage 1 — a
// deterministic stand-in for an expensive cold-path computation — with
// the given server-side read budget.
func newSlowServer(t *testing.T, delay *atomic.Int64, budget time.Duration) (*Server, *model.Community, *engine.Engine) {
	t.Helper()
	comm := testCommunity(t, 30, 40)
	opt := core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
	agents := comm.Agents()
	opt.Candidates = func(model.AgentID) []model.AgentID {
		if d := time.Duration(delay.Load()); d > 0 {
			time.Sleep(d)
		}
		return agents
	}
	eng, err := engine.New(comm, opt, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return NewWithConfig(eng, nil, Config{ReadBudget: budget}), comm, eng
}

// degradedPage decodes the list envelope with the strategy provenance
// block, which carries the degraded marker, its source and its epoch.
type degradedPage struct {
	Items    []json.RawMessage `json:"items"`
	Total    int               `json:"total"`
	Strategy *strategy.Result  `json:"strategy"`
}

// TestColdCacheDeadline504 is the acceptance test for deadline
// propagation: a cold-cache recommendation request under a 10ms budget
// must come back 504 deadline_exceeded in roughly the budget, not after
// the full computation.
func TestColdCacheDeadline504(t *testing.T) {
	var delay atomic.Int64
	const compute = 150 * time.Millisecond
	delay.Store(int64(compute))
	s, comm, _ := newSlowServer(t, &delay, 10*time.Millisecond)
	agent := comm.Agents()[0]

	start := time.Now()
	code := getError(t, s, agentPath(agent, "/recommendations"), http.StatusGatewayTimeout)
	elapsed := time.Since(start)
	if code != "deadline_exceeded" {
		t.Fatalf("error code = %q, want deadline_exceeded", code)
	}
	if elapsed >= compute {
		t.Fatalf("504 took %v — handler blocked on the computation", elapsed)
	}

	// Neighbors observe the budget through the same path. A different
	// agent keeps its caches cold regardless of what the first request's
	// detached flight warms later.
	other := comm.Agents()[1]
	if code := getError(t, s, agentPath(other, "/neighbors"), http.StatusGatewayTimeout); code != "deadline_exceeded" {
		t.Fatalf("neighbors error code = %q", code)
	}
}

// TestDegradedAnswerAfterSwap warms the caches at epoch 1, swaps in a
// cold epoch, and asserts that a request missing its deadline is served
// the previous epoch's cached answer with the degraded markers set.
func TestDegradedAnswerAfterSwap(t *testing.T) {
	var delay atomic.Int64
	s, comm, eng := newSlowServer(t, &delay, 10*time.Millisecond)
	agent := comm.Agents()[0]

	// Fast pipeline: warm the recommendation and peer caches at epoch 1.
	if _, err := eng.Snapshot().Recommend(agent, 10, engine.Overrides{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Snapshot().RankedPeers(agent, engine.Overrides{}); err != nil {
		t.Fatal(err)
	}
	oldEpoch := eng.Epoch()

	// Swap installs a cold epoch and the pipeline turns slow.
	if _, err := eng.Swap(testCommunity(t, 30, 40)); err != nil {
		t.Fatal(err)
	}
	delay.Store(int64(150 * time.Millisecond))

	var out degradedPage
	if code := get(t, s, agentPath(agent, "/recommendations"), &out); code != http.StatusOK {
		t.Fatalf("status = %d, want 200 degraded", code)
	}
	if len(out.Items) == 0 {
		t.Fatal("degraded answer is empty")
	}
	if out.Strategy == nil || !out.Strategy.Degraded || out.Strategy.Procedure != strategy.DegradedCache ||
		out.Strategy.Source != "prev-result-cache" || out.Strategy.Epoch != oldEpoch {
		t.Fatalf("strategy block = %+v, want degraded-cache from prev-result-cache at epoch %d", out.Strategy, oldEpoch)
	}

	out = degradedPage{}
	if code := get(t, s, agentPath(agent, "/neighbors"), &out); code != http.StatusOK {
		t.Fatalf("neighbors status = %d, want 200 degraded", code)
	}
	if out.Strategy == nil || !out.Strategy.Degraded || out.Strategy.Procedure != strategy.DegradedCache ||
		out.Strategy.Source != "prev-peers-cache" || out.Strategy.Epoch != oldEpoch {
		t.Fatalf("neighbors strategy block = %+v, want degraded-cache from prev-peers-cache at epoch %d", out.Strategy, oldEpoch)
	}
}

// TestDegradedNeighborsNamePeersOfANewerSnapshot: a degraded /neighbors
// answer may come from a snapshot published after the request pinned
// its own, and rank an agent that joined in between. Ranks name peers by
// ordinal, and ordinals only grow along the engine's lineage, so the
// encoder names that agent through the newest community.
func TestDegradedNeighborsNamePeersOfANewerSnapshot(t *testing.T) {
	var delay atomic.Int64
	comm := testCommunity(t, 30, 40)
	opt := core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
	var eng *engine.Engine
	opt.Candidates = func(model.AgentID) []model.AgentID {
		if d := time.Duration(delay.Load()); d > 0 {
			time.Sleep(d)
		}
		return eng.Snapshot().Community().Agents()
	}
	eng, err := engine.New(comm, opt, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(eng, nil, Config{ReadBudget: 10 * time.Millisecond})
	pinned, agent := eng.Snapshot(), comm.Agents()[0]

	const late = "http://x/late"
	next := comm.Clone()
	next.AddAgent(late)
	if _, err := eng.Swap(next); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Snapshot().RankedPeers(agent, engine.Overrides{}); err != nil {
		t.Fatal(err)
	}
	delay.Store(int64(150 * time.Millisecond))

	req := httptest.NewRequest(http.MethodGet, agentPath(agent, "/neighbors?n=0"), nil)
	_, _, arg := route(http.MethodGet, req.URL.EscapedPath())
	rec := httptest.NewRecorder()
	s.handleNeighbors(&call{ResponseWriter: rec, r: req, arg: arg, status: http.StatusOK}, pinned)
	var out struct {
		Items    []struct{ Agent model.AgentID }
		Strategy *strategy.Result
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("status %d: %v", rec.Code, err)
	}
	if out.Strategy == nil || !out.Strategy.Degraded || out.Strategy.Epoch != eng.Epoch() {
		t.Fatalf("strategy block = %+v, want a degraded answer from epoch %d", out.Strategy, eng.Epoch())
	}
	named := false
	for _, it := range out.Items {
		if it.Agent == "" {
			t.Fatalf("a peer went unnamed: %s", rec.Body.Bytes())
		}
		named = named || it.Agent == late
	}
	if !named {
		t.Fatalf("the agent that joined after the pinned snapshot is missing: %s", rec.Body.Bytes())
	}
}

// reportingWriter simulates a saturated pipeline that exposes its queue
// backlog, so the server can derive Retry-After from fullness.
type reportingWriter struct{ depth, capacity int }

func (w reportingWriter) Submit(wal.Mutation) (uint64, error) { return 0, ingest.ErrOverloaded }
func (w reportingWriter) QueueStats() (int, int)              { return w.depth, w.capacity }

func TestRetryAfterDerivedFromQueueDepth(t *testing.T) {
	_, comm, eng := newTestServer(t)
	agent := comm.Agents()[0]
	cases := []struct {
		depth, capacity int
		want            string
	}{
		{0, 64, "1"},    // empty queue: transient spike
		{32, 64, "5"},   // half full: 1 + round(3.5)
		{64, 64, "8"},   // saturated: full backoff
		{9999, 64, "8"}, // clamped
		{0, 0, "1"},     // degenerate capacity
	}
	for _, tc := range cases {
		s := NewWritable(eng, reportingWriter{tc.depth, tc.capacity})
		rec := do(t, s, http.MethodPost, agentPath(agent, "/trust"),
			map[string]any{"peer": "http://x/b", "value": 0.5})
		if code := wantErrorCode(t, rec, http.StatusServiceUnavailable); code != "overloaded" {
			t.Fatalf("code = %q", code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Fatalf("depth %d/%d: Retry-After = %q, want %q", tc.depth, tc.capacity, got, tc.want)
		}
	}
}

// TestConcurrentOverloadRetryAfter hammers a saturated writer from many
// goroutines: every 503 must carry the backlog-derived Retry-After.
func TestConcurrentOverloadRetryAfter(t *testing.T) {
	_, comm, eng := newTestServer(t)
	s := NewWritable(eng, reportingWriter{depth: 64, capacity: 64})
	agent := comm.Agents()[0]

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(t, s, http.MethodPost, agentPath(agent, "/trust"),
				map[string]any{"peer": fmt.Sprintf("http://x/peer%d", i), "value": 0.5})
			if rec.Code != http.StatusServiceUnavailable {
				errs <- fmt.Errorf("client %d: status %d", i, rec.Code)
				return
			}
			if got := rec.Header().Get("Retry-After"); got != "8" {
				errs <- fmt.Errorf("client %d: Retry-After %q, want 8", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
