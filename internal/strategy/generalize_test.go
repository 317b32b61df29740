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
			sim, ok = sparse.Cosine(ap, folded(peerName(comm, p)))
		} else {
			sim, ok = sparse.Pearson(ap, folded(peerName(comm, p)))
		}
		np := core.NewPeerRank(p.Ord(), p.Trust)
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
		if peerName(comm, a) < peerName(comm, b) {
			return -1
		}
		return 1
	})
	return out
}

// peerName resolves p's peer through comm's symbol table.
func peerName(comm *model.Community, p core.PeerRank) model.AgentID {
	id, _ := comm.Symbols().AgentID(p.Ord())
	return id
}

// TestGeneralizedPeersMatchesNaiveOracle: the rung — one scan of the
// folded profile matrix — ranks the same members as the map-built oracle,
// every similarity within 1e-12 of it (the oracle sums in map order), in
// the same order wherever two weights differ by more than that.
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
				oracle := make(map[int32]core.PeerRank, len(want))
				for _, p := range want {
					oracle[p.Ord()] = p
				}
				for i, p := range got {
					name := peerName(comm, p)
					w, ok := oracle[p.Ord()]
					if !ok {
						t.Fatalf("[%v %s depth %d] %s is not in the oracle's ranking", measure, active, depth, name)
					}
					if p.SimOK != w.SimOK || math.Abs(p.Sim-w.Sim) > eps || math.Abs(p.Weight-w.Weight) > eps || p.Trust != w.Trust {
						t.Fatalf("[%v %s depth %d] %s = %+v, oracle %+v", measure, active, depth, name, p, w)
					}
					if i > 0 && (got[i-1].Weight < p.Weight || (got[i-1].Weight == p.Weight && peerName(comm, got[i-1]) >= name)) {
						t.Fatalf("[%v %s depth %d] rank %d out of order", measure, active, depth, i)
					}
					// Same place as in the oracle unless the oracle's
					// neighbours there are within rounding of each other.
					if want[i].Ord() != p.Ord() && math.Abs(want[i].Weight-w.Weight) > eps {
						t.Fatalf("[%v %s depth %d] rank %d: %s (%v), oracle has %s (%v)", measure, active, depth, i, name, p.Weight, peerName(comm, want[i]), want[i].Weight)
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
