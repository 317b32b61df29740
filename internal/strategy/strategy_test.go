package strategy

import (
	"context"
	"errors"
	"testing"
)

func mustLadder(t *testing.T, cfg Config) *Ladder {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestConditionHolds(t *testing.T) {
	cases := []struct {
		name string
		c    Condition
		s    Signals
		want bool
	}{
		{"zero condition always holds", Condition{}, Signals{}, true},
		{"min peers inclusive", Condition{MinPeers: 3}, Signals{Peers: 3}, true},
		{"min peers below", Condition{MinPeers: 3}, Signals{Peers: 2}, false},
		{"min top-sim inclusive", Condition{MinTopSim: 0.1}, Signals{TopSim: 0.1}, true},
		{"max top-sim exclusive", Condition{MaxTopSim: 0.1}, Signals{TopSim: 0.1}, false},
		{"max top-sim below", Condition{MaxTopSim: 0.1}, Signals{TopSim: 0.0999}, true},
		{"max peers inclusive", Condition{MaxPeers: 2}, Signals{Peers: 2}, true},
		{"max peers above", Condition{MaxPeers: 2}, Signals{Peers: 3}, false},
		{"taxonomy required", Condition{RequireTaxonomy: true}, Signals{}, false},
		{"taxonomy present", Condition{RequireTaxonomy: true}, Signals{Taxonomy: true}, true},
		{"deadline only without pressure", Condition{DeadlineOnly: true}, Signals{}, false},
		{"deadline only with pressure", Condition{DeadlineOnly: true}, Signals{Deadline: true}, true},
		{"min trust out", Condition{MinTrustOut: 1}, Signals{TrustOut: 0}, false},
		{"min ratings", Condition{MinRatings: 1}, Signals{Ratings: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, reason := tc.c.Holds(tc.s)
			if got != tc.want {
				t.Fatalf("Holds = %v (%q), want %v", got, reason, tc.want)
			}
			if !got && reason == "" {
				t.Fatal("failing condition gave no reason")
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	bad := []Config{
		{Disable: []Procedure{"bogus"}},
		{Disable: Procedures},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLadderShape(t *testing.T) {
	l := mustLadder(t, Config{})
	rungs := l.Rungs()
	if len(rungs) != len(Procedures) {
		t.Fatalf("%d rungs", len(rungs))
	}
	for i, r := range rungs {
		if r.Procedure != Procedures[i] {
			t.Fatalf("rung %d = %s, want %s", i, r.Procedure, Procedures[i])
		}
		if !r.Enabled {
			t.Fatalf("rung %s built disabled", r.Procedure)
		}
	}
	if !rungs[len(rungs)-1].When.DeadlineOnly {
		t.Fatal("bottom rung is not deadline-gated")
	}
}

func TestParseSelector(t *testing.T) {
	l := mustLadder(t, Config{})
	if sel, err := ParseSelector("", l); err != nil || !sel.IsZero() {
		t.Fatalf("empty query: %+v, %v", sel, err)
	}
	sel, err := ParseSelector("popularity", l)
	if err != nil || sel.Pin != Popularity {
		t.Fatalf("pin: %+v, %v", sel, err)
	}
	sel, err = ParseSelector("-full-synthesis,-popularity", l)
	if err != nil || !sel.Exclude[FullSynthesis] || !sel.Exclude[Popularity] {
		t.Fatalf("exclude: %+v, %v", sel, err)
	}
	bad := []string{
		"bogus",
		"-bogus",
		"popularity,full-synthesis",  // two pins
		"popularity,-full-synthesis", // mixed
		"-full-synthesis,popularity", // mixed, other order
		"full-synthesis,,popularity", // empty item
		"-full-synthesis,-trust-hop-widening,-taxonomy-ancestor,-popularity,-degraded-cache", // nothing left
	}
	for _, q := range bad {
		if _, err := ParseSelector(q, l); err == nil {
			t.Fatalf("%q accepted", q)
		}
	}

	// Pinning a disabled rung is rejected at parse time.
	ld := mustLadder(t, Config{Disable: []Procedure{Popularity}})
	if _, err := ParseSelector("popularity", ld); err == nil {
		t.Fatal("pinned a disabled rung")
	}
	// Excluding every rung that is still enabled is rejected too.
	if _, err := ParseSelector("-full-synthesis,-trust-hop-widening,-taxonomy-ancestor,-degraded-cache", ld); err == nil {
		t.Fatal("excluded every enabled rung")
	}
}

// runnerScript drives Walk with canned per-procedure outcomes.
type runnerScript map[Procedure]struct {
	nonEmpty bool
	err      error
}

func (rs runnerScript) run(_ context.Context, r Rung) (bool, error) {
	o := rs[r.Procedure]
	return o.nonEmpty, o.err
}

func TestWalkFallsThroughEmptyRungs(t *testing.T) {
	l := mustLadder(t, Config{})
	// Signals satisfying rung 1; its procedure comes up empty, widening is
	// not thin, ancestor is blocked by high sim, popularity answers.
	sig := Signals{Peers: 5, TopSim: 0.9, Ratings: 4, TrustOut: 2, Taxonomy: true}
	res := l.Walk(context.Background(), sig, Selector{}, runnerScript{
		FullSynthesis: {nonEmpty: false},
		Popularity:    {nonEmpty: true},
	}.run)
	if res.Procedure != Popularity {
		t.Fatalf("procedure = %s (%+v)", res.Procedure, res.Attempts)
	}
	// The walk returns at the answering rung; the degraded rung below it
	// is never considered.
	want := []Outcome{OutcomeEmpty, OutcomeSkipped, OutcomeSkipped, OutcomeOK}
	if len(res.Attempts) != len(want) {
		t.Fatalf("attempts = %+v", res.Attempts)
	}
	for i, at := range res.Attempts {
		if at.Outcome != want[i] {
			t.Fatalf("attempt %d = %+v, want %s", i, at, want[i])
		}
	}
}

func TestWalkErrorOutcomes(t *testing.T) {
	l := mustLadder(t, Config{})
	sig := Signals{Peers: 5, TopSim: 0.9}
	boom := errors.New("boom")
	res := l.Walk(context.Background(), sig, Selector{}, runnerScript{
		FullSynthesis: {err: boom},
		Popularity:    {err: ErrNotApplicable},
	}.run)
	if res.Procedure != None {
		t.Fatalf("procedure = %s", res.Procedure)
	}
	if res.Attempts[0].Outcome != OutcomeError || res.Attempts[0].Reason != "boom" {
		t.Fatalf("error attempt = %+v", res.Attempts[0])
	}
	for _, at := range res.Attempts {
		if at.Procedure == Popularity && at.Outcome != OutcomeSkipped {
			t.Fatalf("not-applicable rung = %+v", at)
		}
	}
}

func TestWalkDeadlinePressure(t *testing.T) {
	l := mustLadder(t, Config{})
	// Deadline already hit during signal gathering: every quality rung is
	// recorded as deadline-blocked, only the degraded rung runs.
	res := l.Walk(context.Background(), Signals{Deadline: true}, Selector{}, runnerScript{
		DegradedCache: {nonEmpty: true},
	}.run)
	if res.Procedure != DegradedCache {
		t.Fatalf("procedure = %s (%+v)", res.Procedure, res.Attempts)
	}
	for _, at := range res.Attempts[:len(res.Attempts)-1] {
		if at.Outcome != OutcomeDeadline {
			t.Fatalf("quality rung under pressure = %+v", at)
		}
	}

	// Mid-rung budget exhaustion maps context errors to the deadline
	// outcome rather than error.
	res = l.Walk(context.Background(), Signals{Peers: 5, TopSim: 0.9}, Selector{}, runnerScript{
		FullSynthesis: {err: context.DeadlineExceeded},
	}.run)
	if res.Attempts[0].Outcome != OutcomeDeadline {
		t.Fatalf("mid-rung deadline = %+v", res.Attempts[0])
	}
}

func TestWalkPinBypassesCondition(t *testing.T) {
	l := mustLadder(t, Config{})
	// Signals that would never select popularity on their own merits are
	// irrelevant under a pin.
	res := l.Walk(context.Background(), Signals{Peers: 9, TopSim: 0.9}, Selector{Pin: Popularity}, runnerScript{
		Popularity: {nonEmpty: true},
	}.run)
	if res.Procedure != Popularity || len(res.Attempts) != 1 {
		t.Fatalf("pinned walk = %+v", res)
	}
	// A pinned rung that comes up empty exhausts the ladder — no fallback.
	res = l.Walk(context.Background(), Signals{}, Selector{Pin: Popularity}, runnerScript{}.run)
	if res.Procedure != None || len(res.Attempts) != 1 {
		t.Fatalf("empty pinned walk = %+v", res)
	}
}

func TestWalkExclusions(t *testing.T) {
	l := mustLadder(t, Config{})
	sig := Signals{Peers: 5, TopSim: 0.9}
	res := l.Walk(context.Background(), sig, Selector{Exclude: map[Procedure]bool{FullSynthesis: true}}, runnerScript{
		FullSynthesis: {nonEmpty: true}, // must never run
		Popularity:    {nonEmpty: true},
	}.run)
	if res.Procedure != Popularity {
		t.Fatalf("procedure = %s", res.Procedure)
	}
	if res.Attempts[0].Outcome != OutcomeExcluded {
		t.Fatalf("excluded rung = %+v", res.Attempts[0])
	}
}
