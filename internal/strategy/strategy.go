// Package strategy implements the recommendation quality ladder: an
// ordered sequence of (Condition, Procedure) rungs the engine walks per
// request when the paper's core machinery is starved — cold-start agents
// with no ratings (§2), profiles with near-zero taxonomy overlap (§2,
// §3.3), and thin trust neighborhoods where Appleseed has almost nothing
// to propagate (§3.2).
//
// The pattern follows the backoff workflow of SchemaTreeRecommender:
// every rung declares its precondition as plain data, the first enabled
// rung whose condition holds against the request's gathered Signals runs
// its procedure, and an empty or failed procedure falls through to the
// next applicable rung. Because conditions are data, rung selection is
// deterministic, introspectable (GET /v1/strategies) and testable; the
// walk records an attempt trace that the API reports verbatim in the
// response envelope's strategy block.
//
// The default ladder, top to bottom:
//
//  1. full-synthesis     — the unmodified §3 pipeline (trust neighborhood,
//     taxonomy CF, rank synthesization, vote).
//  2. trust-hop-widening — expand the trust neighborhood one hop beyond
//     the metric's range when it is too thin to vote (Jamali's
//     distributed trust-aware widening; trust.WidenOneHop).
//  3. taxonomy-ancestor  — re-rank peers over profiles generalized up
//     super-topics, the dual of Eq. 3 downward propagation, when profile
//     overlap is below threshold (profmat.Fold).
//  4. popularity         — community-wide popularity vote, preferring
//     products from categories the agent left untouched (§3.4's
//     content-driven incentive).
//  5. degraded-cache     — the PR 3 previous-epoch cache probe, re-homed
//     as the deliberate bottom of the ladder: it applies only under
//     deadline pressure, never as a quality fallback.
package strategy

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"swrec/internal/metrics"
)

// Procedure names one rung's answering mechanism. The string form is the
// wire name used in the strategy provenance block, /v1/strategies, the
// strategy= override, and the swrec_strategy expvar keys.
type Procedure string

const (
	// FullSynthesis is the unmodified paper pipeline (rung 1).
	FullSynthesis Procedure = "full-synthesis"
	// TrustHopWidening expands thin neighborhoods one trust hop (rung 2).
	TrustHopWidening Procedure = "trust-hop-widening"
	// TaxonomyAncestor re-ranks peers over generalized profiles (rung 3).
	TaxonomyAncestor Procedure = "taxonomy-ancestor"
	// Popularity is the community-wide popularity vote (rung 4).
	Popularity Procedure = "popularity"
	// DegradedCache probes previous-epoch caches under deadline pressure
	// (rung 5, PR 3's emergency path re-homed).
	DegradedCache Procedure = "degraded-cache"
	// None marks ladder exhaustion: no rung produced an answer.
	None Procedure = "none"
)

// Procedures lists every real rung in ladder order.
var Procedures = []Procedure{FullSynthesis, TrustHopWidening, TaxonomyAncestor, Popularity, DegradedCache}

// Signals are the per-request facts conditions are evaluated against,
// gathered once before the walk. All fields are pure functions of the
// snapshot and the request pipeline, so evaluation is deterministic.
type Signals struct {
	// TrustOut is the number of positive trust statements the active
	// agent has issued (its widenable out-degree).
	TrustOut int `json:"trustOut"`
	// Ratings is the size of the active agent's rating history.
	Ratings int `json:"ratings"`
	// Peers is the size of the synthesized stage 1-3 peer ranking.
	Peers int `json:"peers"`
	// Energy is the total normalized trust mass of the ranking (sum of
	// per-peer trust ranks in [0,1]). No condition tests it; the
	// thin-neighborhood reason reports it beside Peers.
	Energy float64 `json:"energy"`
	// TopSim is the best defined non-negative similarity among the
	// ranked peers; 0 when no pair has a defined positive similarity —
	// the "low profile overlap" signal of §2.
	TopSim float64 `json:"topSim"`
	// Taxonomy reports whether the pipeline runs over a taxonomy-backed
	// profile space (required for ancestor generalization).
	Taxonomy bool `json:"taxonomy"`
	// Deadline reports that the compute budget expired during signal
	// gathering: only the degraded-cache rung can still answer.
	Deadline bool `json:"deadline"`
}

// Condition is one rung's precondition as data. Zero-valued fields are
// disabled checks; all enabled checks are conjunctive. Min bounds are
// inclusive; Max bounds are exclusive on the float side (TopSim <
// MaxTopSim) and inclusive on the integer side (Peers <= MaxPeers), so a
// ladder built from one threshold splits the signal space without gaps
// or overlap.
type Condition struct {
	MinTrustOut     int     `json:"minTrustOut,omitempty"`
	MinRatings      int     `json:"minRatings,omitempty"`
	MinPeers        int     `json:"minPeers,omitempty"`
	MaxPeers        int     `json:"maxPeers,omitempty"`
	MinTopSim       float64 `json:"minTopSim,omitempty"`
	MaxTopSim       float64 `json:"maxTopSim,omitempty"`
	RequireTaxonomy bool    `json:"requireTaxonomy,omitempty"`
	// DeadlineOnly restricts the rung to requests whose compute budget
	// already expired — the degraded-cache rung must never answer a
	// healthy request.
	DeadlineOnly bool `json:"deadlineOnly,omitempty"`
}

// Holds evaluates the condition against the gathered signals. When it
// does not hold, reason names the first failing check — the text that
// lands in the attempt trace.
func (c Condition) Holds(s Signals) (bool, string) {
	if c.DeadlineOnly && !s.Deadline {
		return false, "no deadline pressure"
	}
	if c.MinTrustOut > 0 && s.TrustOut < c.MinTrustOut {
		return false, fmt.Sprintf("trust out-degree %d < %d", s.TrustOut, c.MinTrustOut)
	}
	if c.MinRatings > 0 && s.Ratings < c.MinRatings {
		return false, fmt.Sprintf("ratings %d < %d", s.Ratings, c.MinRatings)
	}
	if c.MinPeers > 0 && s.Peers < c.MinPeers {
		return false, fmt.Sprintf("peers %d < %d", s.Peers, c.MinPeers)
	}
	if c.MaxPeers > 0 && s.Peers > c.MaxPeers {
		return false, fmt.Sprintf("neighborhood not thin (peers %d, energy %.3g)", s.Peers, s.Energy)
	}
	if c.MinTopSim > 0 && s.TopSim < c.MinTopSim {
		return false, fmt.Sprintf("top similarity %.3g < %.3g", s.TopSim, c.MinTopSim)
	}
	if c.MaxTopSim > 0 && s.TopSim >= c.MaxTopSim {
		return false, fmt.Sprintf("top similarity %.3g >= %.3g", s.TopSim, c.MaxTopSim)
	}
	if c.RequireTaxonomy && !s.Taxonomy {
		return false, "no taxonomy profile space"
	}
	return true, ""
}

// Rung is one ladder step: a procedure guarded by its precondition.
// The JSON form is what GET /v1/strategies lists.
type Rung struct {
	Procedure Procedure `json:"procedure"`
	When      Condition `json:"condition"`
	Enabled   bool      `json:"enabled"`

	stats *rungStats // the procedure's counters
}

// The default ladder's thresholds.
const (
	// MinPeers is the peer count below which a neighborhood counts as
	// thin: full synthesis requires at least this many ranked peers, and
	// trust-hop widening engages strictly below it.
	MinPeers = 3
	// MinOverlap is the top-similarity threshold splitting full synthesis
	// (TopSim >= MinOverlap) from taxonomy-ancestor backoff
	// (TopSim < MinOverlap).
	MinOverlap = 0.1
	// HopDecay attenuates ranks recruited by trust-hop widening.
	HopDecay = 0.5
	// AncestorDepth is the taxonomy depth profiles are generalized to by
	// the taxonomy-ancestor rung.
	AncestorDepth = 2
)

// Config shapes the default ladder. The zero value enables every rung.
type Config struct {
	// Disable lists rungs to build disabled (still listed by
	// /v1/strategies, never walked).
	Disable []Procedure
}

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	known := make(map[Procedure]bool, len(Procedures))
	for _, p := range Procedures {
		known[p] = true
	}
	for _, p := range c.Disable {
		if !known[p] {
			return fmt.Errorf("strategy: unknown rung %q in disable list", p)
		}
	}
	if len(c.Disable) >= len(Procedures) {
		return errors.New("strategy: cannot disable every rung")
	}
	return nil
}

// Ladder is an immutable, validated rung sequence. Safe for concurrent
// use.
type Ladder struct {
	rungs []Rung
}

// New builds the default five-rung ladder from cfg (zero value = every
// rung enabled).
func New(cfg Config) (*Ladder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	disabled := make(map[Procedure]bool, len(cfg.Disable))
	for _, p := range cfg.Disable {
		disabled[p] = true
	}
	rungs := []Rung{
		{Procedure: FullSynthesis, When: Condition{
			MinPeers:  MinPeers,
			MinTopSim: MinOverlap,
		}},
		{Procedure: TrustHopWidening, When: Condition{
			MinTrustOut: 1,
			MaxPeers:    MinPeers - 1,
		}},
		{Procedure: TaxonomyAncestor, When: Condition{
			MinRatings:      1,
			MinPeers:        1,
			MaxTopSim:       MinOverlap,
			RequireTaxonomy: true,
		}},
		{Procedure: Popularity, When: Condition{}},
		{Procedure: DegradedCache, When: Condition{DeadlineOnly: true}},
	}
	for i := range rungs {
		rungs[i].Enabled = !disabled[rungs[i].Procedure]
		rungs[i].stats = &procStats[slices.Index(Procedures, rungs[i].Procedure)]
	}
	return &Ladder{rungs: rungs}, nil
}

// Rungs returns a copy of the ladder in walk order.
func (l *Ladder) Rungs() []Rung {
	out := make([]Rung, len(l.rungs))
	copy(out, l.rungs)
	return out
}

// Rung returns the rung for procedure p.
func (l *Ladder) Rung(p Procedure) (Rung, bool) {
	for _, r := range l.rungs {
		if r.Procedure == p {
			return r, true
		}
	}
	return Rung{}, false
}

// Selector is a validated per-request ladder override: pin exactly one
// rung (its condition is bypassed) or exclude a set of rungs. The zero
// value walks the full ladder.
type Selector struct {
	Pin     Procedure
	Exclude map[Procedure]bool
}

// IsZero reports whether the selector leaves the ladder untouched.
func (s Selector) IsZero() bool { return s.Pin == "" && len(s.Exclude) == 0 }

// ParseSelector parses the strategy= query parameter against a ladder:
// a bare rung name pins that rung; items prefixed with '-' exclude
// rungs; the two forms do not mix and at most one rung can be pinned.
// The empty string yields the zero selector.
func ParseSelector(q string, l *Ladder) (Selector, error) {
	var sel Selector
	if q == "" {
		return sel, nil
	}
	excluded := 0
	for _, item := range strings.Split(q, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return Selector{}, errors.New("strategy: empty item in strategy list")
		}
		if name, ok := strings.CutPrefix(item, "-"); ok {
			r, found := l.Rung(Procedure(name))
			if !found {
				return Selector{}, fmt.Errorf("strategy: unknown rung %q", name)
			}
			if sel.Pin != "" {
				return Selector{}, errors.New("strategy: cannot mix a pinned rung with exclusions")
			}
			if sel.Exclude == nil {
				sel.Exclude = make(map[Procedure]bool)
			}
			if !sel.Exclude[r.Procedure] {
				sel.Exclude[r.Procedure] = true
				if r.Enabled {
					excluded++
				}
			}
			continue
		}
		r, found := l.Rung(Procedure(item))
		if !found {
			return Selector{}, fmt.Errorf("strategy: unknown rung %q", item)
		}
		if !r.Enabled {
			return Selector{}, fmt.Errorf("strategy: rung %q is disabled", item)
		}
		if sel.Pin != "" {
			return Selector{}, errors.New("strategy: at most one rung can be pinned")
		}
		if len(sel.Exclude) > 0 {
			return Selector{}, errors.New("strategy: cannot mix a pinned rung with exclusions")
		}
		sel.Pin = r.Procedure
	}
	if sel.Pin == "" && excluded > 0 {
		enabled := 0
		for _, r := range l.rungs {
			if r.Enabled {
				enabled++
			}
		}
		if excluded >= enabled {
			return Selector{}, errors.New("strategy: cannot exclude every enabled rung")
		}
	}
	return sel, nil
}

// Outcome classifies one rung attempt in the trace.
type Outcome string

const (
	// OutcomeOK marks the rung that produced the answer.
	OutcomeOK Outcome = "ok"
	// OutcomeEmpty marks a rung that ran but produced nothing.
	OutcomeEmpty Outcome = "empty"
	// OutcomeSkipped marks a rung whose condition did not hold (or whose
	// procedure does not apply to the request kind).
	OutcomeSkipped Outcome = "skipped"
	// OutcomeExcluded marks a rung removed by the strategy= override.
	OutcomeExcluded Outcome = "excluded"
	// OutcomeDisabled marks a rung disabled by configuration.
	OutcomeDisabled Outcome = "disabled"
	// OutcomeDeadline marks a rung that could not run (or was cut short)
	// because the compute budget expired.
	OutcomeDeadline Outcome = "deadline"
	// OutcomeError marks a rung whose procedure failed durably.
	OutcomeError Outcome = "error"
)

// Attempt is one trace entry. Attempts carry no timings — the trace must
// be byte-identical across runs for equal snapshots.
type Attempt struct {
	Procedure Procedure `json:"procedure"`
	Outcome   Outcome   `json:"outcome"`
	Reason    string    `json:"reason,omitempty"`
}

// Result is the strategy provenance block of one answered request: the
// procedure that produced the answer (None on exhaustion), the full
// attempt trace, and the snapshot epoch the answer came from. Degraded
// answers keep PR 3's source marker inside the block.
type Result struct {
	Procedure Procedure `json:"procedure"`
	Attempts  []Attempt `json:"attempts"`
	Epoch     uint64    `json:"epoch"`
	Degraded  bool      `json:"degraded,omitempty"`
	Source    string    `json:"source,omitempty"`
}

// ErrNotApplicable is returned by a Runner whose procedure does not
// apply to the request kind (popularity has no peer-list analogue); the
// walk records the rung as skipped and moves on.
var ErrNotApplicable = errors.New("strategy: procedure not applicable")

// Runner executes one rung's procedure, reporting whether it produced a
// non-empty answer. The runner captures the answer itself; the walk only
// steers.
type Runner func(ctx context.Context, r Rung) (nonEmpty bool, err error)

// Walk executes the ladder against the gathered signals: the first
// enabled, non-excluded rung whose condition holds runs; empty or failed
// procedures fall through. A pinned rung runs alone with its condition
// bypassed. The returned result carries the attempt trace; Procedure is
// None when no rung answered (the exhausted counter increments).
func (l *Ladder) Walk(ctx context.Context, sig Signals, sel Selector, run Runner) *Result {
	res := &Result{Procedure: None, Attempts: make([]Attempt, 0, len(l.rungs))}
	if sel.Pin != "" {
		r, ok := l.Rung(sel.Pin)
		if !ok || !r.Enabled {
			// Selectors are validated at parse time; an invalid pin here
			// means the ladder changed underneath — treat as exhausted.
			res.Attempts = append(res.Attempts, Attempt{Procedure: sel.Pin, Outcome: OutcomeDisabled})
			recordExhausted()
			return res
		}
		l.attempt(ctx, res, r, "pinned", run)
		if res.Procedure == None {
			recordExhausted()
		}
		return res
	}
	for _, r := range l.rungs {
		if sel.Exclude[r.Procedure] {
			res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeExcluded})
			continue
		}
		if !r.Enabled {
			res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeDisabled})
			continue
		}
		expired := sig.Deadline || ctx.Err() != nil
		if r.When.DeadlineOnly {
			if !expired {
				res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeSkipped, Reason: "no deadline pressure"})
				continue
			}
		} else if expired {
			res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeDeadline, Reason: "budget exhausted before rung"})
			continue
		} else if hold, reason := r.When.Holds(sig); !hold {
			res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeSkipped, Reason: reason})
			continue
		}
		if l.attempt(ctx, res, r, "", run); res.Procedure != None {
			return res
		}
	}
	recordExhausted()
	return res
}

// attempt runs one rung's procedure and records its trace entry, setting
// res.Procedure on success.
func (l *Ladder) attempt(ctx context.Context, res *Result, r Rung, reason string, run Runner) {
	r.stats.attempt.Add(1)
	nonEmpty, err := run(ctx, r)
	switch {
	case errors.Is(err, ErrNotApplicable):
		res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeSkipped, Reason: "not applicable"})
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeDeadline, Reason: "budget exhausted mid-rung"})
	case err != nil:
		res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeError, Reason: err.Error()})
	case !nonEmpty:
		res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeEmpty, Reason: reason})
	default:
		res.Attempts = append(res.Attempts, Attempt{Procedure: r.Procedure, Outcome: OutcomeOK, Reason: reason})
		res.Procedure = r.Procedure
		r.stats.success.Add(1)
	}
}

// stats publishes per-rung attempt/success and ladder-exhaustion
// counters: <procedure>_attempt, <procedure>_success, exhausted.
var stats = metrics.NewMap("strategy")

// rungStats are one procedure's two swrec_strategy counters.
type rungStats struct {
	attempt, success *metrics.Counter
}

// procStats holds the counters of Procedures[i] at i. New hands each
// rung its procedure's, so a walk names and looks up no counter.
var procStats = func() []rungStats {
	s := make([]rungStats, len(Procedures))
	for i, p := range Procedures {
		s[i] = rungStats{
			attempt: stats.Counter(string(p) + "_attempt"),
			success: stats.Counter(string(p) + "_success"),
		}
	}
	return s
}()

var exhaustedStat = stats.Counter("exhausted")

func recordExhausted() { exhaustedStat.Add(1) }
