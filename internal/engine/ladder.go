package engine

import (
	"context"
	"errors"

	"swrec/internal/core"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/trust"
)

// Pipe-key rungs distinguishing the lower rungs' cached artifacts from
// the rung-1 pipeline's (rung 0). Because they live in the regular
// peers/results caches under peerKey/recKey, the delta-swap carry
// validates them with the same dependency fingerprints: trustDirty is a
// reverse reachability closure, so it covers the one extra hop widening
// takes, and the cached value's own member list is what the
// rating-change scan walks. The checkpoint stores the rung as one byte of
// the pipe key's binary spelling (see PipeSize).
const (
	rungWiden byte = 'w' // trust-hop-widened neighborhoods and their votes
	rungGen   byte = 'g' // taxonomy-ancestor re-rankings and their votes
)

// rungOf returns the pipe-key rung a ladder procedure's artifacts are
// cached under: 0 for full synthesis (and procedures that cache nothing).
func rungOf(p strategy.Procedure) byte {
	switch p {
	case strategy.TrustHopWidening:
		return rungWiden
	case strategy.TaxonomyAncestor:
		return rungGen
	}
	return 0
}

// withRung returns the key tagged as a ladder rung's artifact.
func (k pipeKey) withRung(r byte) pipeKey {
	k.rung = r
	return k
}

// ladderDeadline reports whether err is deadline-shaped (the request or
// compute budget expired) rather than durable.
func ladderDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// ladderSignals gathers the per-request facts rung conditions evaluate
// against, plus the stage 1-3 peer ranking the lower rungs transform.
// The ranking comes from the regular neighborhood cache, so a healthy
// rung-1 request pays nothing extra. A deadline during gathering sets
// Signals.Deadline (only the degraded rung can still answer) instead of
// failing; durable errors (unknown agent, invalid variant) are returned.
func (e *Engine) ladderSignals(ctx context.Context, snap *Snapshot, a *model.Agent, ov Overrides) (strategy.Signals, []core.PeerRank, error) {
	var sig strategy.Signals
	sig.Ratings = len(a.RatedProducts())
	sig.TrustOut = len(a.TrustedPeers().Positive())
	rec, err := snap.RecommenderFor(ov)
	if err != nil {
		return sig, nil, err
	}
	sig.Taxonomy = rec.Filter().Generator() != nil
	nb, err := snap.neighborhoodRef(ctx, a, ov, 0, nil)
	if err != nil {
		if ladderDeadline(err) {
			sig.Deadline = true
			return sig, nil, nil
		}
		return sig, nil, err
	}
	ranks := nb.ranks()
	sig.Peers = len(ranks)
	sig.Energy, sig.TopSim = nb.signals()
	return sig, ranks, nil
}

// widen is the trust-hop widening of base, the rung-1 ranking of a; an
// empty base widens from the agent's direct positive trust statements.
func (s *Snapshot) widen(rec *core.Recommender, a *model.Agent, base []core.PeerRank) *trust.Neighborhood {
	nb := &trust.Neighborhood{Source: a.Ord(), Ranks: make([]trust.Rank, len(base))}
	for i, p := range base {
		nb.Ranks[i] = trust.NewRank(p.Ord(), p.Trust)
	}
	return trust.WidenOneHop(rec.Adjacency(), nb, strategy.HopDecay)
}

// PopularityRank returns the snapshot's community-wide popularity
// ranking (strategy ladder rung 4), computed once per snapshot — or
// carried across a delta swap whose batch touched no ratings.
func (s *Snapshot) PopularityRank() []core.Recommendation {
	if r := s.popRank.Load(); r != nil {
		return *r
	}
	s.popOnce.Do(func() {
		r := strategy.PopularityRank(s.comm)
		s.popRank.Store(&r)
	})
	return *s.popRank.Load()
}

// RecommendLadder answers a recommendation request by walking the
// strategy ladder: the first rung whose precondition holds against the
// request's signals produces the answer, lower rungs engage when the
// pipeline is starved (thin trust, low overlap, cold start) or the
// budget expired. The returned Result is the strategy provenance block
// the API reports. A non-nil error is either durable (unknown agent,
// invalid variant) or deadline-shaped when the ladder was exhausted
// under deadline pressure — preserving the 504 contract of PR 3.
func (e *Engine) RecommendLadder(ctx context.Context, snap *Snapshot, active model.AgentID, n int, ov Overrides, sel strategy.Selector) ([]core.Recommendation, *strategy.Result, error) {
	return walkLadder(ctx, e, snap, active, ov, sel,
		func(rctx context.Context, p strategy.Procedure, a *model.Agent, base []core.PeerRank) ([]core.Recommendation, error) {
			switch p {
			case strategy.FullSynthesis, strategy.TrustHopWidening, strategy.TaxonomyAncestor:
				return snap.recommendRef(rctx, a, n, ov, rungOf(p), base)
			case strategy.Popularity:
				if err := rctx.Err(); err != nil {
					return nil, err
				}
				return strategy.PopularityFor(snap.comm, snap.PopularityRank(), a, n), nil
			}
			return nil, strategy.ErrNotApplicable
		},
		func() ([]core.Recommendation, string, uint64, bool) { return e.degradedRecommend(active, n, ov) })
}

// RankedPeersLadder is RecommendLadder for neighborhood requests: the
// same ladder walk, with the popularity rung recorded as not applicable
// (there is no agent-independent peer ranking worth serving).
func (e *Engine) RankedPeersLadder(ctx context.Context, snap *Snapshot, active model.AgentID, ov Overrides, sel strategy.Selector) ([]core.PeerRank, *strategy.Result, error) {
	return walkLadder(ctx, e, snap, active, ov, sel,
		func(rctx context.Context, p strategy.Procedure, a *model.Agent, base []core.PeerRank) ([]core.PeerRank, error) {
			switch p {
			case strategy.FullSynthesis:
				return base, rctx.Err()
			case strategy.TrustHopWidening, strategy.TaxonomyAncestor:
				nb, err := snap.neighborhoodRef(rctx, a, ov, rungOf(p), base)
				if err != nil {
					return nil, err
				}
				return nb.ranks(), nil
			}
			return nil, strategy.ErrNotApplicable
		},
		func() ([]core.PeerRank, string, uint64, bool) { return e.degradedPeers(active, ov) })
}

// walkLadder is the one ladder walk behind RecommendLadder and
// RankedPeersLadder: it gathers the signals, lets rung answer every
// procedure but the degraded cache's (a zero-length answer falls
// through) and degrade answer that one (any cached answer, even an
// empty list, counts: a degraded empty answer beats a 504),
// stamps the result with the answering epoch and degraded source, and
// turns a walk exhausted under deadline pressure into the deadline
// error.
func walkLadder[E any](ctx context.Context, e *Engine, snap *Snapshot, active model.AgentID, ov Overrides, sel strategy.Selector,
	rung func(context.Context, strategy.Procedure, *model.Agent, []core.PeerRank) ([]E, error),
	degrade func() ([]E, string, uint64, bool)) ([]E, *strategy.Result, error) {
	a := snap.comm.Agent(active)
	if a == nil {
		return nil, nil, unknownAgent(active)
	}
	sig, base, err := e.ladderSignals(ctx, snap, a, ov)
	if err != nil {
		return nil, nil, err
	}
	var out []E
	var degSource string
	var degEpoch uint64
	res := e.ladder.Walk(ctx, sig, sel, func(rctx context.Context, r strategy.Rung) (bool, error) {
		if r.Procedure == strategy.DegradedCache {
			got, source, epoch, ok := degrade()
			if ok {
				out, degSource, degEpoch = got, source, epoch
			}
			return ok, nil
		}
		got, err := rung(rctx, r.Procedure, a, base)
		if err != nil {
			return false, err
		}
		out = got
		return len(got) > 0, nil
	})
	res.Epoch = snap.epoch
	if res.Procedure == strategy.DegradedCache && degSource != "" {
		res.Degraded = true
		res.Source = degSource
		res.Epoch = degEpoch
	}
	if res.Procedure == strategy.None {
		if err := ctx.Err(); err != nil {
			return nil, res, err
		}
		if sig.Deadline {
			return nil, res, context.DeadlineExceeded
		}
	}
	return out, res, nil
}
