package loadgen

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"swrec/internal/attack"
	"swrec/internal/ingest"
)

// smokeScenario is a seconds-scale scenario exercising every moving
// part: mixed reads, churn writes, a flash window, one Sybil ring.
func smokeScenario() *Scenario {
	sc := &Scenario{
		Name: "smoke",
		Seed: 7,
		Community: Community{
			Agents: 120, Products: 150, Clusters: 4,
			MeanRatings: 6, MeanTrust: 5, PopularitySkew: 1.0,
		},
		Workload: Workload{
			Events: 800, Concurrency: 6, ZipfS: 1.0, ReadFraction: 0.8,
			Churn: Churn{TrustPerJoin: 2, RatingsPerJoin: 1},
			Flash: []Flash{{StartFrac: 0.4, EndFrac: 0.6, Multiplier: 2, HotAgents: 4}},
		},
		Attacks: []attack.Spec{{
			Kind: attack.SybilRing, Count: 6, VictimIdx: 11, PushProducts: 2,
			MaxEnergyShare: 0.35, MaxRankPerturbation: 10, MaxPushedRate: 0.75,
		}},
		Samples: 8,
		TopK:    8,
		Warmup:  true,
	}
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	return sc
}

// TestPlanDeterministic pins the determinism contract the acceptance
// criteria name: fixed seed ⇒ identical event sequence, every time.
func TestPlanDeterministic(t *testing.T) {
	sc := Short()
	a := Plan(sc)
	b := Plan(sc)
	if len(a) != sc.Workload.Events {
		t.Fatalf("plan has %d events, scenario wants %d", len(a), sc.Workload.Events)
	}
	fa, fb := Fingerprint(a), Fingerprint(b)
	if fa != fb {
		t.Fatalf("same scenario planned twice: %s vs %s", fa, fb)
	}
	other := Short()
	other.Seed++
	if fo := Fingerprint(Plan(other)); fo == fa {
		t.Fatalf("different seed produced identical plan %s", fo)
	}
}

// TestPlanChurnConsistency replays the plan's churn bookkeeping: every
// leave retracts a statement some earlier event actually wrote, and
// every joiner writes only after its join.
func TestPlanChurnConsistency(t *testing.T) {
	sc := Short()
	plan := Plan(sc)
	joined := map[int]bool{}
	type stmt struct{ agent, peer, product int }
	written := map[stmt]bool{}
	for _, ev := range plan {
		switch ev.Endpoint {
		case EpWriteJoin:
			j := joinerOrdinal(ev.Agent)
			if j < 0 {
				t.Fatalf("event %d: join with honest agent ref %d", ev.Idx, ev.Agent)
			}
			if joined[j] {
				t.Fatalf("event %d: joiner %d joined twice", ev.Idx, j)
			}
			joined[j] = true
		case EpWriteTrust, EpWriteRating:
			if j := joinerOrdinal(ev.Agent); j >= 0 && !joined[j] {
				t.Fatalf("event %d: joiner %d writes before joining", ev.Idx, j)
			}
			written[stmt{ev.Agent, ev.Peer, ev.Product}] = true
		case EpWriteLeave:
			if !written[stmt{ev.Agent, ev.Peer, ev.Product}] {
				t.Fatalf("event %d: leave retracts a statement never written (agent=%d peer=%d product=%d)",
					ev.Idx, ev.Agent, ev.Peer, ev.Product)
			}
		}
	}
	if len(joined) == 0 {
		t.Fatal("short preset planned no joins; churn untested")
	}
}

// TestRunOpenPacing covers the open-loop executor path: the plan
// carries a compressed arrival schedule through flash windows, the
// dispatcher honors it (the run cannot finish before the last scheduled
// arrival), and latency is measured from scheduled arrival so the
// status-set invariants still hold.
func TestRunOpenPacing(t *testing.T) {
	sc := &Scenario{
		Name: "open-smoke",
		Seed: 23,
		Community: Community{
			Agents: 120, Products: 150, Clusters: 4,
			MeanRatings: 6, MeanTrust: 5, PopularitySkew: 1.0,
		},
		Workload: Workload{
			Events: 600, Concurrency: 6, Pacing: "open", Rate: 3000,
			ZipfS: 1.0, ReadFraction: 0.8,
			Churn: Churn{TrustPerJoin: 1, RatingsPerJoin: 1},
			Flash: []Flash{{StartFrac: 0.4, EndFrac: 0.6, Multiplier: 3, HotAgents: 4}},
		},
		Warmup: true,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}

	plan := Plan(sc)
	base := time.Duration(float64(time.Second) / sc.Workload.Rate)
	for i := 1; i < len(plan); i++ {
		step := plan[i].At - plan[i-1].At
		if step <= 0 {
			t.Fatalf("event %d: arrival schedule not increasing (%v after %v)", i, plan[i].At, plan[i-1].At)
		}
		frac := float64(i) / float64(len(plan))
		if frac >= 0.45 && frac < 0.55 {
			if step >= base {
				t.Fatalf("event %d: flash window did not compress arrivals (step %v, base %v)", i, step, base)
			}
		} else if frac < 0.35 || frac >= 0.65 {
			if step != base {
				t.Fatalf("event %d: steady-state step %v, want %v", i, step, base)
			}
		}
	}

	ctx := context.Background()
	p, err := BuildInProc(ctx, sc, t.TempDir(), ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	runner := &Runner{Scenario: sc, Plan: plan, Resolver: p.Resolver, Target: HandlerTarget{Handler: p.Handler}}
	res, err := runner.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(plan) {
		t.Fatalf("completed %d of %d events", res.Completed, len(plan))
	}
	if last := plan[len(plan)-1].At; res.Wall < last {
		t.Fatalf("open run finished in %v, before the last scheduled arrival %v", res.Wall, last)
	}
	for _, v := range sc.SLO.Check(res) {
		t.Errorf("SLO violation: %s", v)
	}
	if len(res.Acked) == 0 {
		t.Fatal("no write was durably acked")
	}
}

// TestShortPresetConfinedUnderDefaultBlend is the security gate on the
// configuration that ships: the short preset's Sybil ring must stay
// within its Spec bounds under the serving default — the similarity
// blend over the bounded, floor-gated neighborhood — not only with
// weighting pinned to pure trust. Before the trust floor the ring
// reached 54 % of honest top-Ks under the blend (bound: 10 %).
func TestShortPresetConfinedUnderDefaultBlend(t *testing.T) {
	sc := Short()
	p, err := BuildInProc(context.Background(), sc, "", ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attacks, err := p.MeasureAttacks(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(attacks) != len(sc.Attacks) {
		t.Fatalf("measured %d attacks, want %d", len(attacks), len(sc.Attacks))
	}
	for _, ar := range attacks {
		if len(ar.Violations) > 0 {
			t.Errorf("%s escaped under the default blend: %v", ar.Kind, ar.Violations)
		}
		if ar.PushedRate > ar.Spec.MaxPushedRate || ar.MaxRankPerturbation > ar.Spec.MaxRankPerturbation {
			t.Errorf("%s: blend pushed rate %.3f (bound %.3f), rank perturbation %d (bound %d) — a breach the violations list missed",
				ar.Kind, ar.PushedRate, ar.Spec.MaxPushedRate, ar.MaxRankPerturbation, ar.Spec.MaxRankPerturbation)
		}
		t.Logf("%s: blend pushed %.3f perturbation %d; trust-gated pushed %.3f perturbation %d",
			ar.Kind, ar.PushedRate, ar.MaxRankPerturbation, ar.TrustGated.PushedRate, ar.TrustGated.MaxRankPerturbation)
	}
}

// TestRunSmoke is the end-to-end harness test: build the attacked
// community in-process, measure confinement, run the full mixed
// workload, and check the report's invariants.
func TestRunSmoke(t *testing.T) {
	sc := smokeScenario()
	ctx := context.Background()
	p, err := BuildInProc(ctx, sc, t.TempDir(), ingest.Config{
		SnapshotEvery: 64, SnapshotInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	attacks, err := p.MeasureAttacks(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(attacks) != 1 {
		t.Fatalf("measured %d attacks, want 1", len(attacks))
	}
	for _, ar := range attacks {
		if len(ar.Violations) > 0 {
			t.Errorf("confinement violated: %v", ar.Violations)
		}
		if ar.Samples == 0 {
			t.Error("confinement measured zero samples")
		}
	}

	plan := Plan(sc)
	runner := &Runner{Scenario: sc, Plan: plan, Resolver: p.Resolver, Target: HandlerTarget{Handler: p.Handler}}
	res, err := runner.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(plan) {
		t.Fatalf("completed %d of %d events", res.Completed, len(plan))
	}

	// Status-set invariants, with latency budgets disabled: the smoke
	// must never see a status its endpoint class does not allow, and
	// never an unexpected error.
	for _, v := range sc.SLO.Check(res) {
		t.Errorf("SLO violation: %s", v)
	}
	if len(res.Acked) == 0 {
		t.Fatal("no write was durably acked")
	}
	if len(res.Rungs) == 0 {
		t.Fatal("no strategy rung latency recorded; provenance parsing broken")
	}

	// The server's own swrec_http accounting must agree with the
	// harness's client-side view. The expvar maps are process-global
	// (other tests in this binary add to them), so the server count is a
	// lower bound, never below what this run sent.
	status, body, _, err := (HandlerTarget{Handler: p.Handler}).Do("GET", "/v1/metrics", nil)
	if err != nil || status != 200 {
		t.Fatalf("GET /v1/metrics: status %d err %v", status, err)
	}
	var metrics struct {
		HTTP map[string]float64 `json:"swrec_http"`
	}
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics parse: %v", err)
	}
	for _, ep := range []string{EpRecommendations, EpNeighbors, EpWriteTrust} {
		sent := res.Endpoints[ep].Hist.Summary().Count
		if got := metrics.HTTP[ep+"_requests"]; got < float64(sent) {
			t.Errorf("swrec_http %s_requests = %.0f, but the harness sent %d", ep, got, sent)
		}
	}

	rep := BuildReport(sc, plan, res, attacks)
	for _, key := range []string{
		"recommendations.p99_ms", "neighbors.p99_ms", "overall.error_rate",
		"write_trust.error_rate", "attack.sybil-ring.energy_share", "slo.violations",
	} {
		if _, ok := rep.Metrics[key]; !ok {
			t.Errorf("report metrics missing %q", key)
		}
	}
	if rep.Metrics["slo.violations"] != 0 {
		t.Errorf("report records %v SLO violations: %v", rep.Metrics["slo.violations"], rep.Violations)
	}
	if rep.PlanFingerprint != Fingerprint(plan) {
		t.Error("report fingerprint mismatch")
	}
	path := t.TempDir() + "/BENCH_load.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reread, err := Load(path) // not a scenario; must fail cleanly
	if err == nil && reread != nil && reread.Name == "" {
		t.Error("Load accepted a report artifact as a scenario")
	}
}
