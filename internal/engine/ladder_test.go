package engine

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"testing"

	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/trust"
)

// fixtureCommunity is a small datagen community with the three hard-query
// fixtures injected: a zero-history cold-start agent, a thin-trust agent
// whose only trust statement points at a sink buddy, and a disjoint-profile
// agent whose interests live in a taxonomy branch nobody else touches.
func fixtureCommunity(t testing.TB) (comm *model.Community, cold, thin, disjoint model.AgentID) {
	t.Helper()
	comm = testCommunity(t, 40, 60)
	cold = datagen.InjectColdStart(comm)
	thin, _ = datagen.InjectThinTrust(comm, comm.Agents()[0])
	disjoint = datagen.InjectDisjointProfile(comm, comm.Agents()[:3], 4)
	return comm, cold, thin, disjoint
}

func strategyCounter(name string) int64 {
	m, ok := expvar.Get("swrec_strategy").(*expvar.Map)
	if !ok {
		return 0
	}
	if v, ok := m.Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// TestLadderSelectsRungDeterministically is the rung-selection acceptance
// test: each fixture must land on its designed rung, with a non-empty
// answer and a trace that explains every rung above it.
func TestLadderSelectsRungDeterministically(t *testing.T) {
	comm, cold, thin, disjoint := fixtureCommunity(t)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	cases := []struct {
		name  string
		agent model.AgentID
		want  strategy.Procedure
	}{
		{"healthy", comm.Agents()[0], strategy.FullSynthesis},
		{"thin-trust", thin, strategy.TrustHopWidening},
		{"disjoint-profile", disjoint, strategy.TaxonomyAncestor},
		{"cold-start", cold, strategy.Popularity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, res, err := e.RecommendLadder(context.Background(), snap, tc.agent, 10, Overrides{}, strategy.Selector{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Procedure != tc.want {
				t.Fatalf("procedure = %s, want %s (attempts %+v)", res.Procedure, tc.want, res.Attempts)
			}
			if len(recs) == 0 {
				t.Fatal("no recommendations")
			}
			if res.Epoch != snap.Epoch() {
				t.Fatalf("epoch = %d, want %d", res.Epoch, snap.Epoch())
			}
			// The trace covers the whole ladder prefix up to the answering
			// rung, and the answering rung's entry is the OK one.
			last := res.Attempts[len(res.Attempts)-1]
			if last.Procedure != tc.want || last.Outcome != strategy.OutcomeOK {
				t.Fatalf("trace tail = %+v", last)
			}
			for _, at := range res.Attempts[:len(res.Attempts)-1] {
				if at.Outcome == strategy.OutcomeOK {
					t.Fatalf("rung above the answer reported ok: %+v", res.Attempts)
				}
			}
		})
	}
}

// TestLadderRunsAreStable re-runs each fixture and replays it across a
// delta swap: the reported procedure must not flap, and within one epoch
// the answer must be byte-identical (it comes from the snapshot caches).
func TestLadderRunsAreStable(t *testing.T) {
	comm, cold, thin, disjoint := fixtureCommunity(t)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	agents := []model.AgentID{comm.Agents()[0], cold, thin, disjoint}
	first := make(map[model.AgentID]*strategy.Result, len(agents))
	for _, id := range agents {
		recs1, res1, err := e.RecommendLadder(context.Background(), snap, id, 8, Overrides{}, strategy.Selector{})
		if err != nil {
			t.Fatal(err)
		}
		recs2, res2, err := e.RecommendLadder(context.Background(), snap, id, 8, Overrides{}, strategy.Selector{})
		if err != nil {
			t.Fatal(err)
		}
		if res1.Procedure != res2.Procedure {
			t.Fatalf("%s: procedure flapped %s -> %s", id, res1.Procedure, res2.Procedure)
		}
		sameRecs(t, id, recs2, recs1)
		first[id] = res1
	}

	// An unrelated rating change swaps in a new epoch; the fixtures'
	// pathologies are structural, so their rungs must not move.
	clone := comm.Clone()
	other := comm.Agents()[5]
	if err := clone.SetRating(other, comm.Products()[0], 0.9); err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.RatingsChanged[clone.Agent(other).Ord()] = true
	snap2, err := e.SwapDelta(clone, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range agents {
		_, res, err := e.RecommendLadder(context.Background(), snap2, id, 8, Overrides{}, strategy.Selector{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Procedure != first[id].Procedure {
			t.Fatalf("%s: procedure moved across epochs %s -> %s", id, first[id].Procedure, res.Procedure)
		}
		if res.Epoch != snap2.Epoch() {
			t.Fatalf("%s: epoch = %d, want %d", id, res.Epoch, snap2.Epoch())
		}
	}
}

// TestLadderWideningAddsPeers hand-builds a two-hop trust chain and bounds
// Appleseed's range so the stage-1 neighborhood is provably truncated:
// widening must recruit the second hop that the metric could not reach —
// also under a trust floor above anything a joiner can rank (joiners
// enter at decay · rank · t ≤ 0.5 of the best member): the floor gates
// the metric's own ranks in stage 1, never the peers widening recruits,
// or the rung would be a no-op exactly when the neighborhood is thin.
func TestLadderWideningAddsPeers(t *testing.T) {
	for _, floor := range []float64{core.DefaultTrustThreshold, 0.9} {
		t.Run(fmt.Sprintf("floor=%g", floor), func(t *testing.T) { ladderWideningAddsPeers(t, floor) })
	}
}

func ladderWideningAddsPeers(t *testing.T, floor float64) {
	comm := testCommunity(t, 10, 30)
	src := model.AgentID("http://fixture.example/people/chain-src")
	mid := model.AgentID("http://fixture.example/people/chain-mid")
	far1 := model.AgentID("http://fixture.example/people/chain-far1")
	far2 := model.AgentID("http://fixture.example/people/chain-far2")
	for _, id := range []model.AgentID{src, mid, far1, far2} {
		comm.AddAgent(id)
	}
	donor := comm.Agent(comm.Agents()[0])
	for _, id := range []model.AgentID{src, mid, far1, far2} {
		for _, rs := range comm.RatingStatements(donor) {
			if err := comm.SetRating(id, rs.Product, rs.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(comm.SetTrust(src, mid, 1))
	must(comm.SetTrust(mid, far1, 1))
	must(comm.SetTrust(mid, far2, 1))

	opt := testOptions()
	opt.Appleseed = trust.AppleseedOptions{MaxNodes: 1} // discovery stops at mid
	opt.TrustThreshold = floor
	e, err := New(comm, opt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	peers, res, err := e.RankedPeersLadder(context.Background(), snap, src, Overrides{}, strategy.Selector{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procedure != strategy.TrustHopWidening {
		t.Fatalf("procedure = %s (attempts %+v)", res.Procedure, res.Attempts)
	}
	got := make(map[model.AgentID]bool, len(peers))
	for _, p := range peers {
		got[p.Agent] = true
	}
	if !got[mid] || !got[far1] || !got[far2] {
		t.Fatalf("widened peers = %v, want mid+far1+far2", got)
	}
	for _, p := range peers {
		if p.Agent != mid && p.Trust >= 0.9 {
			t.Fatalf("fixture: joiner %s ranks %v, not under the 0.9 floor", p.Agent, p.Trust)
		}
	}
}

// TestLadderSelector exercises the per-request override: pinning bypasses
// conditions, excluding the healthy rung pushes a healthy agent down the
// ladder, and the trace records the exclusion.
func TestLadderSelector(t *testing.T) {
	comm, _, _, _ := fixtureCommunity(t)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	healthy := comm.Agents()[0]

	sel, err := strategy.ParseSelector("popularity", e.Ladder())
	if err != nil {
		t.Fatal(err)
	}
	recs, res, err := e.RecommendLadder(context.Background(), snap, healthy, 10, Overrides{}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Procedure != strategy.Popularity || len(recs) == 0 {
		t.Fatalf("pinned popularity: procedure = %s, %d recs", res.Procedure, len(recs))
	}
	if len(res.Attempts) != 1 || res.Attempts[0].Reason != "pinned" {
		t.Fatalf("pinned trace = %+v", res.Attempts)
	}

	sel, err = strategy.ParseSelector("-full-synthesis", e.Ladder())
	if err != nil {
		t.Fatal(err)
	}
	_, res, err = e.RecommendLadder(context.Background(), snap, healthy, 10, Overrides{}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts[0].Outcome != strategy.OutcomeExcluded {
		t.Fatalf("trace head = %+v, want excluded", res.Attempts[0])
	}
	// A healthy agent is neither thin nor low-overlap, so the exclusion
	// falls through to the unconditional popularity rung.
	if res.Procedure != strategy.Popularity {
		t.Fatalf("procedure = %s (attempts %+v)", res.Procedure, res.Attempts)
	}
}

// TestLadderDisabledRung builds an engine with the widening rung disabled:
// the thin-trust fixture must fall past it (trace says disabled) onto the
// next applicable rung instead.
func TestLadderDisabledRung(t *testing.T) {
	comm, _, thin, _ := fixtureCommunity(t)
	e, err := New(comm, testOptions(), Config{
		Strategy: strategy.Config{Disable: []strategy.Procedure{strategy.TrustHopWidening}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := e.RecommendLadder(context.Background(), e.Snapshot(), thin, 10, Overrides{}, strategy.Selector{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procedure == strategy.TrustHopWidening {
		t.Fatal("disabled rung answered")
	}
	var sawDisabled bool
	for _, at := range res.Attempts {
		if at.Procedure == strategy.TrustHopWidening {
			sawDisabled = at.Outcome == strategy.OutcomeDisabled
		}
	}
	if !sawDisabled {
		t.Fatalf("trace = %+v, want trust-hop-widening disabled", res.Attempts)
	}
}

// TestLadderCounters asserts the swrec_strategy expvar map advances with
// the walk: the answering rung gains attempt+success, and pinning gains an
// attempt for the pinned rung only.
func TestLadderCounters(t *testing.T) {
	comm, cold, _, _ := fixtureCommunity(t)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	attempts := strategyCounter("popularity_attempt")
	successes := strategyCounter("popularity_success")
	if _, _, err := e.RecommendLadder(context.Background(), snap, cold, 10, Overrides{}, strategy.Selector{}); err != nil {
		t.Fatal(err)
	}
	if strategyCounter("popularity_attempt") != attempts+1 || strategyCounter("popularity_success") != successes+1 {
		t.Fatal("popularity counters did not advance")
	}
}

// TestLadderUnknownAgent preserves the engine error contract through the
// ladder path.
func TestLadderUnknownAgent(t *testing.T) {
	comm, _, _, _ := fixtureCommunity(t)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = e.RecommendLadder(context.Background(), e.Snapshot(), "http://nobody.example/x", 10, Overrides{}, strategy.Selector{})
	if !errors.Is(err, core.ErrUnknownAgent) {
		t.Fatalf("err = %v, want ErrUnknownAgent", err)
	}
}
