package strategy

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/sparse"
	"swrec/internal/taxonomy"
)

// naiveGeneralizedPeers is the rung as it was first written, kept here as
// the oracle: build each agent's Eq. 3 profile as a map, fold every topic
// deeper than depth onto its primary-path ancestor at depth, compare the
// folded maps with the sparse measures, re-blend, sort.
func naiveGeneralizedPeers(comm *model.Community, measure cf.Measure, active model.AgentID, base []core.PeerRank, alpha float64, depth int) []core.PeerRank {
	tax := comm.Taxonomy()
	gen := profile.New(tax)
	if depth < 1 {
		depth = 1
	}
	folded := func(id model.AgentID) sparse.Vector {
		out := sparse.New(0)
		a := comm.Agent(id)
		if a == nil {
			return out
		}
		row, _ := gen.ProfileCtx(context.Background(), a, comm)
		for i, k := range row.Keys {
			path := tax.PrimaryPath(taxonomy.Topic(k))
			if len(path)-1 <= depth {
				out.Add(k, row.Vals[i])
			} else {
				out.Add(int32(path[depth]), row.Vals[i])
			}
		}
		return out
	}
	ap := folded(active)
	out := make([]core.PeerRank, 0, len(base))
	for _, p := range base {
		var sim float64
		var ok bool
		if measure == cf.Cosine {
			sim, ok = sparse.Cosine(ap, folded(p.Agent))
		} else {
			sim, ok = sparse.Pearson(ap, folded(p.Agent))
		}
		np := core.NewPeerRank(comm.Agent(p.Agent), p.Trust)
		sn := 0.0
		if ok {
			np.Sim, np.SimOK = sim, true
			sn = max(sim, 0)
		}
		np.Weight = alpha*p.Trust + (1-alpha)*sn
		out = append(out, np)
	}
	slices.SortFunc(out, func(a, b core.PeerRank) int {
		if a.Weight != b.Weight {
			if a.Weight > b.Weight {
				return -1
			}
			return 1
		}
		if a.Agent < b.Agent {
			return -1
		}
		return 1
	})
	return out
}

// TestGeneralizedPeersMatchesNaiveOracle: the rung — one scan of the
// folded profile matrix — ranks the same members as the map-built oracle,
// every similarity within 1e-12 of it (the oracle sums in map order), in
// the same order wherever two weights differ by more than that, each peer
// still carrying its ordinal.
func TestGeneralizedPeersMatchesNaiveOracle(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents = 120
	comm, _ := datagen.Generate(cfg)
	ctx := context.Background()
	const alpha, eps = 0.4, 1e-12
	for _, measure := range []cf.Measure{cf.Cosine, cf.Pearson} {
		rec, err := core.New(comm, core.Options{CF: cf.Options{Measure: measure, Representation: cf.Taxonomy}})
		if err != nil {
			t.Fatal(err)
		}
		compared := 0
		for _, active := range []model.AgentID{comm.Agents()[0], comm.Agents()[41], comm.Agents()[119]} {
			base, err := rec.RankedPeers(active)
			if err != nil {
				t.Fatal(err)
			}
			for _, depth := range []int{0, 1, 2, 3} {
				got, err := GeneralizedPeers(ctx, rec, active, base, alpha, depth)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveGeneralizedPeers(comm, measure, active, base, alpha, depth)
				if len(got) != len(want) || len(got) == 0 {
					t.Fatalf("[%v %s depth %d] %d peers, oracle %d", measure, active, depth, len(got), len(want))
				}
				oracle := make(map[model.AgentID]core.PeerRank, len(want))
				for _, p := range want {
					oracle[p.Agent] = p
				}
				for i, p := range got {
					w, ok := oracle[p.Agent]
					if !ok {
						t.Fatalf("[%v %s depth %d] %s is not in the oracle's ranking", measure, active, depth, p.Agent)
					}
					if p.SimOK != w.SimOK || math.Abs(p.Sim-w.Sim) > eps || math.Abs(p.Weight-w.Weight) > eps || p.Trust != w.Trust || p.Ord() != w.Ord() {
						t.Fatalf("[%v %s depth %d] %s = %+v (ordinal %d), oracle %+v (ordinal %d)", measure, active, depth, p.Agent, p, p.Ord(), w, w.Ord())
					}
					if i > 0 && (got[i-1].Weight < p.Weight || (got[i-1].Weight == p.Weight && got[i-1].Agent >= p.Agent)) {
						t.Fatalf("[%v %s depth %d] rank %d out of order", measure, active, depth, i)
					}
					// Same place as in the oracle unless the oracle's
					// neighbours there are within rounding of each other.
					if want[i].Agent != p.Agent && math.Abs(want[i].Weight-w.Weight) > eps {
						t.Fatalf("[%v %s depth %d] rank %d: %s (%v), oracle has %s (%v)", measure, active, depth, i, p.Agent, p.Weight, want[i].Agent, want[i].Weight)
					}
					if p.SimOK {
						compared++
					}
				}
				if &got[0] == &base[0] {
					t.Fatal("the rung re-ranked the cached base ranking in place")
				}
			}
		}
		if compared == 0 {
			t.Fatalf("[%v] no defined similarity compared", measure)
		}
	}

	byProduct, err := core.New(comm, core.Options{CF: cf.Options{Representation: cf.Product}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GeneralizedPeers(ctx, byProduct, comm.Agents()[0], nil, alpha, 2); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("product representation: err = %v, want ErrNotApplicable", err)
	}
}
