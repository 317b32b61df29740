package strategy

import (
	"context"

	"swrec/internal/core"
	"swrec/internal/model"
)

// GeneralizedPeers re-runs rank synthesization at super-topic resolution
// (the dual of Eq. 3's downward propagation): every peer's similarity is
// recomputed by the ordinary stage-2 scan over the filter's profile
// matrix folded to taxonomy depth `depth` (profmat.Fold), under the
// configured measure, and the rank weight is re-blended as
// α·trust + (1-α)·max(sim, 0) — the score-blend merge of §3.4. This
// recovers comparability for the "low profile overlap" pathology of §2:
// two agents whose fine-grained topics are disjoint may still agree at
// super-topic resolution. Trust ranks pass through unchanged; the result
// is sorted by descending weight, ties by agent URI, like
// core.RankedPeersCtx. Returns ErrNotApplicable for filters without a
// taxonomy profile space (Product representation).
func GeneralizedPeers(ctx context.Context, rec *core.Recommender, active model.AgentID, base []core.PeerRank, alpha float64, depth int) ([]core.PeerRank, error) {
	if rec.Filter().Generator() == nil {
		return nil, ErrNotApplicable
	}
	// The copy keeps every peer's ordinal and trust; similarity and
	// weight are recomputed.
	out := make([]core.PeerRank, len(base))
	copy(out, base)
	if err := rec.AncestorSimilarities(ctx, active, out, depth); err != nil {
		return nil, err
	}
	for i := range out {
		sn := 0.0
		if out[i].SimOK && out[i].Sim > 0 {
			sn = out[i].Sim
		}
		out[i].Weight = float64(alpha*out[i].Trust) + float64((1-alpha)*sn)
	}
	rec.SortPeers(out)
	return out, nil
}
