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
// peers/results LRUs under peerKey/recKey, the delta-swap carry
// validates them with the same dependency fingerprints: trustDirty is a
// reverse reachability closure, so it covers the one extra hop widening
// takes, and the cached value's own member list is what the
// rating-change scan walks. The checkpoint wire format spells the rungs
// as the historical "|w"/"|g" pipe-string suffixes (see pipeKey.String).
const (
	rungWiden byte = 'w' // trust-hop-widened neighborhoods and their votes
	rungGen   byte = 'g' // taxonomy-ancestor re-rankings and their votes
)

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
	sig.Ratings = len(a.Ratings)
	for _, st := range a.TrustedPeers() {
		if st.Value > 0 {
			sig.TrustOut++
		}
	}
	rec, err := snap.RecommenderFor(ov)
	if err != nil {
		return sig, nil, err
	}
	sig.Taxonomy = rec.Filter().Generator() != nil
	nb, err := snap.neighborhoodRef(ctx, a, ov)
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

// widenedPeers returns the trust-hop-widened, re-synthesized peer
// ranking for active (strategy ladder rung 2), cached in the snapshot's
// neighborhood LRU under the widened pipe key. base is the rung-1
// ranking the widening starts from, its peers named by the ordinals they
// carry; an empty base widens from the agent's direct positive trust
// statements.
func (s *Snapshot) widenedPeers(ctx context.Context, a *model.Agent, ov Overrides, base []core.PeerRank) ([]core.PeerRank, error) {
	key := peerKey{agent: a.Ord(), pipe: ov.pipelineKey().withRung(rungWiden)}
	if nb, ok := s.peers.get(key); ok {
		stats.Add("peers_hit", 1)
		return nb.ranks(), nil
	}
	stats.Add("peers_miss", 1)
	v, err, shared := s.flights.doCtx(ctx, key.flight(), s.flightCtx, func(fctx context.Context) (any, error) {
		rec, err := s.RecommenderFor(ov)
		if err != nil {
			return nil, err
		}
		sym := s.comm.Symbols()
		nb := &trust.Neighborhood{Source: a.ID, Ranks: make([]trust.Rank, len(base))}
		for i, p := range base {
			if peer := sym.AgentAt(p.Ord()); peer != nil { // a zero-value rank stays one
				nb.Ranks[i] = trust.NewRank(peer, p.Trust)
			}
		}
		wide := trust.WidenOneHop(rec.Adjacency(), nb, strategy.HopDecay)
		peers, err := rec.SynthesizeCtx(fctx, a.ID, wide)
		if err != nil {
			return nil, err
		}
		s.peers.add(key, &neighborhood{list: peers})
		return peers, nil
	})
	if shared {
		stats.Add("flight_shared", 1)
	}
	if err != nil {
		return nil, err
	}
	return v.([]core.PeerRank), nil
}

// generalizedPeers returns the taxonomy-ancestor re-ranking for active
// (strategy ladder rung 3), cached under the generalized pipe key.
// Returns strategy.ErrNotApplicable for pipelines without a taxonomy
// profile space.
func (s *Snapshot) generalizedPeers(ctx context.Context, a *model.Agent, ov Overrides, base []core.PeerRank) ([]core.PeerRank, error) {
	key := peerKey{agent: a.Ord(), pipe: ov.pipelineKey().withRung(rungGen)}
	if nb, ok := s.peers.get(key); ok {
		stats.Add("peers_hit", 1)
		return nb.ranks(), nil
	}
	stats.Add("peers_miss", 1)
	v, err, shared := s.flights.doCtx(ctx, key.flight(), s.flightCtx, func(fctx context.Context) (any, error) {
		rec, err := s.RecommenderFor(ov)
		if err != nil {
			return nil, err
		}
		alpha := ov.apply(s.opt).BlendAlpha()
		peers, err := strategy.GeneralizedPeers(fctx, rec, a.ID, base, alpha, strategy.AncestorDepth)
		if err != nil {
			return nil, err
		}
		s.peers.add(key, &neighborhood{list: peers})
		return peers, nil
	})
	if shared {
		stats.Add("flight_shared", 1)
	}
	if err != nil {
		return nil, err
	}
	return v.([]core.PeerRank), nil
}

// ladderVote runs (and caches) the stage-4 vote over a lower rung's peer
// ranking, mirroring RecommendCtx's cache/flight discipline under the
// suffixed pipe key.
func (s *Snapshot) ladderVote(ctx context.Context, a *model.Agent, n int, ov Overrides, rung byte, peersFn func(context.Context) ([]core.PeerRank, error)) ([]core.Recommendation, error) {
	key := recKey{agent: a.Ord(), n: int32(n), pipe: ov.pipelineKey().withRung(rung), content: ov.contentKey()}
	if recs, ok := s.results.get(key); ok {
		stats.Add("results_hit", 1)
		return recs, nil
	}
	stats.Add("results_miss", 1)
	v, err, shared := s.flights.doCtx(ctx, key.flight(), s.flightCtx, func(fctx context.Context) (any, error) {
		peers, err := peersFn(fctx)
		if err != nil {
			return nil, err
		}
		rec, err := s.RecommenderFor(ov)
		if err != nil {
			return nil, err
		}
		recs, err := rec.RecommendFromCtx(fctx, a.ID, peers, n)
		if err != nil {
			return nil, err
		}
		s.results.add(key, recs)
		return recs, nil
	})
	if shared {
		stats.Add("flight_shared", 1)
	}
	if err != nil {
		return nil, err
	}
	return v.([]core.Recommendation), nil
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
	a := snap.comm.Agent(active)
	if a == nil {
		return nil, nil, unknownAgent(active)
	}
	sig, base, err := e.ladderSignals(ctx, snap, a, ov)
	if err != nil {
		return nil, nil, err
	}
	var out []core.Recommendation
	var degSource string
	var degEpoch uint64
	res := e.ladder.Walk(ctx, sig, sel, func(rctx context.Context, r strategy.Rung) (bool, error) {
		switch r.Procedure {
		case strategy.FullSynthesis:
			recs, err := snap.recommendRef(rctx, a, n, ov)
			if err != nil {
				return false, err
			}
			out = recs
			return len(recs) > 0, nil
		case strategy.TrustHopWidening:
			recs, err := snap.ladderVote(rctx, a, n, ov, rungWiden, func(fctx context.Context) ([]core.PeerRank, error) {
				return snap.widenedPeers(fctx, a, ov, base)
			})
			if err != nil {
				return false, err
			}
			out = recs
			return len(recs) > 0, nil
		case strategy.TaxonomyAncestor:
			recs, err := snap.ladderVote(rctx, a, n, ov, rungGen, func(fctx context.Context) ([]core.PeerRank, error) {
				return snap.generalizedPeers(fctx, a, ov, base)
			})
			if err != nil {
				return false, err
			}
			out = recs
			return len(recs) > 0, nil
		case strategy.Popularity:
			recs, err := snap.popularityFor(rctx, a, n)
			if err != nil {
				return false, err
			}
			out = recs
			return len(recs) > 0, nil
		case strategy.DegradedCache:
			recs, source, epoch, ok := e.degradedRecommend(active, n, ov)
			if !ok {
				return false, nil
			}
			out, degSource, degEpoch = recs, source, epoch
			// A cached empty list is still an answer: PR 3 served it
			// degraded rather than 504ing, and the ladder keeps that.
			return true, nil
		default:
			return false, strategy.ErrNotApplicable
		}
	})
	e.finishResult(ctx, snap, res, sig, degSource, degEpoch)
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

// popularityFor serves the rung-4 answer, collapsing concurrent first
// computations of the snapshot ranking through the flight group.
func (s *Snapshot) popularityFor(ctx context.Context, a *model.Agent, n int) ([]core.Recommendation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.popRank.Load() == nil {
		// Build the shared ranking inside a flight so a herd of starved
		// requests computes it once; the build itself is bounded by the
		// community size, not the request.
		_, _, _ = s.flights.do(flightKey{kind: flightPopularity}, func() (any, error) {
			return s.PopularityRank(), nil
		})
	}
	return strategy.PopularityFor(s.comm, s.PopularityRank(), a, n), nil
}

// finishResult stamps the walk result with the answering epoch and the
// degraded-source details when the bottom rung served.
func (e *Engine) finishResult(_ context.Context, snap *Snapshot, res *strategy.Result, _ strategy.Signals, degSource string, degEpoch uint64) {
	res.Epoch = snap.epoch
	if res.Procedure == strategy.DegradedCache && degSource != "" {
		res.Degraded = true
		res.Source = degSource
		res.Epoch = degEpoch
	}
}

// RankedPeersLadder is RecommendLadder for neighborhood requests: the
// same ladder walk, with the popularity rung recorded as not applicable
// (there is no agent-independent peer ranking worth serving).
func (e *Engine) RankedPeersLadder(ctx context.Context, snap *Snapshot, active model.AgentID, ov Overrides, sel strategy.Selector) ([]core.PeerRank, *strategy.Result, error) {
	a := snap.comm.Agent(active)
	if a == nil {
		return nil, nil, unknownAgent(active)
	}
	sig, base, err := e.ladderSignals(ctx, snap, a, ov)
	if err != nil {
		return nil, nil, err
	}
	var out []core.PeerRank
	var degSource string
	var degEpoch uint64
	res := e.ladder.Walk(ctx, sig, sel, func(rctx context.Context, r strategy.Rung) (bool, error) {
		switch r.Procedure {
		case strategy.FullSynthesis:
			if err := rctx.Err(); err != nil {
				return false, err
			}
			out = base
			return len(base) > 0, nil
		case strategy.TrustHopWidening:
			peers, err := snap.widenedPeers(rctx, a, ov, base)
			if err != nil {
				return false, err
			}
			out = peers
			return len(peers) > 0, nil
		case strategy.TaxonomyAncestor:
			peers, err := snap.generalizedPeers(rctx, a, ov, base)
			if err != nil {
				return false, err
			}
			out = peers
			return len(peers) > 0, nil
		case strategy.Popularity:
			return false, strategy.ErrNotApplicable
		case strategy.DegradedCache:
			peers, source, epoch, ok := e.degradedPeers(active, ov)
			if !ok {
				return false, nil
			}
			out, degSource, degEpoch = peers, source, epoch
			return true, nil
		default:
			return false, strategy.ErrNotApplicable
		}
	})
	e.finishResult(ctx, snap, res, sig, degSource, degEpoch)
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
