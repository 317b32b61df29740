package strategy

import (
	"context"
	"slices"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/model"
)

// GeneralizedPeers re-runs rank synthesization over profiles generalized
// up super-topics (profile.Generalize, the dual of Eq. 3's downward
// propagation): every peer's similarity is recomputed at taxonomy depth
// `depth` under the filter's configured measure, and the rank weight is
// re-blended as α·trust + (1-α)·max(sim, 0) — the score-blend merge of
// §3.4. This recovers comparability for the "low profile overlap"
// pathology of §2: two agents whose fine-grained topics are disjoint may
// still agree at super-topic resolution. Trust ranks pass through
// unchanged; the result is sorted by descending weight, ties by agent
// ID, like core.RankedPeersCtx. Returns ErrNotApplicable for filters
// without a taxonomy profile space (Product representation).
func GeneralizedPeers(ctx context.Context, f *cf.Filter, active model.AgentID, base []core.PeerRank, alpha float64, depth int) ([]core.PeerRank, error) {
	gen := f.Generator()
	if gen == nil {
		return nil, ErrNotApplicable
	}
	ap := gen.Generalize(f.ProfileOf(active), depth)
	out := make([]core.PeerRank, 0, len(base))
	for i, p := range base {
		if i&15 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pp := gen.Generalize(f.ProfileOf(p.Agent), depth)
		sim, ok := f.Compare(ap, pp)
		// A copy keeps the peer's identity (URI and carried ordinal) and
		// trust; similarity and weight are recomputed.
		np := p
		np.Sim, np.SimOK = 0, false
		if ok {
			np.Sim, np.SimOK = sim, true
		}
		sn := 0.0
		if ok && sim > 0 {
			sn = sim
		}
		np.Weight = alpha*p.Trust + (1-alpha)*sn
		out = append(out, np)
	}
	slices.SortFunc(out, func(a, b core.PeerRank) int {
		switch {
		case a.Weight > b.Weight:
			return -1
		case a.Weight < b.Weight:
			return 1
		case a.Agent < b.Agent:
			return -1
		case a.Agent > b.Agent:
			return 1
		default:
			return 0
		}
	})
	return out, nil
}
