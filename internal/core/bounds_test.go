package core

import (
	"context"
	"fmt"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/trust"
)

// TestNeighborhoodBoundsHold pins §3.3's bounded neighborhood as an
// invariant of every trust metric, for every agent of a generated
// community: a ranking never holds more than M peers and owns an array of
// exactly its length, the Appleseed walk never explores or ranks more
// than R agents, and no neighbor's normalized trust lies under the floor.
// It runs under the zero-value options and under bounds tight enough to
// bind at this community size.
func TestNeighborhoodBoundsHold(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents = 400
	comm, _ := datagen.Generate(cfg)

	tight := defaultOpts()
	tight.Appleseed.MaxNodes, tight.MaxNeighbors, tight.TrustThreshold = 60, 20, 0.05
	for _, bounds := range []struct {
		name string
		opt  Options
	}{{"defaults", defaultOpts()}, {"R=60 M=20 floor=0.05", tight}} {
		for _, metric := range []Metric{Appleseed, Advogato, PathTrust, NoTrust} {
			opt := bounds.opt
			opt.Metric = metric
			t.Run(fmt.Sprintf("%s/%s", bounds.name, metric), func(t *testing.T) {
				checkBounds(t, comm, opt)
			})
		}
	}
}

func checkBounds(t *testing.T, comm *model.Community, opt Options) {
	r, err := New(comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	eff := opt.WithDefaults()
	capped, cut := false, false
	for _, id := range comm.Agents() {
		nb, err := r.Neighborhood(id)
		if err != nil {
			t.Fatal(err)
		}
		if eff.Metric == Appleseed {
			// The source is fetched too: R peers plus itself.
			if nb.Explored > eff.Appleseed.MaxNodes+1 || len(nb.Ranks) > eff.Appleseed.MaxNodes {
				t.Fatalf("%s: walk explored %d agents and ranked %d, R = %d", id, nb.Explored, len(nb.Ranks), eff.Appleseed.MaxNodes)
			}
			raw, err := trust.Appleseed(context.Background(), r.Adjacency(), comm.Agent(id).Ord(), eff.Appleseed, nil)
			if err != nil {
				t.Fatal(err)
			}
			cut = cut || len(nb.Ranks) < len(raw.Ranks)
		}
		for _, rk := range nb.Ranks {
			if rk.Trust/nb.Ranks[0].Trust < eff.TrustThreshold {
				t.Fatalf("%s: neighbor %s has relative trust %v, floor %v", id, nameOf(comm, rk.Ord()), rk.Trust/nb.Ranks[0].Trust, eff.TrustThreshold)
			}
		}
		peers, err := r.RankedPeers(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(peers) > eff.MaxNeighbors || len(peers) > len(nb.Ranks) {
			t.Fatalf("%s: %d peers ranked from a neighborhood of %d, M = %d", id, len(peers), len(nb.Ranks), eff.MaxNeighbors)
		}
		if cap(peers) != len(peers) {
			t.Fatalf("%s: ranking of %d peers holds an array of %d", id, len(peers), cap(peers))
		}
		capped = capped || len(nb.Ranks) > eff.MaxNeighbors
		for _, p := range peers {
			if p.Trust < eff.TrustThreshold {
				t.Fatalf("%s: peer %s kept with normalized trust %v, floor %v", id, nameOf(comm, p.Ord()), p.Trust, eff.TrustThreshold)
			}
		}
	}
	if eff.Metric == NoTrust && !capped {
		t.Fatal("fixture: M never bound a whole-community candidate set")
	}
	if eff.Metric == Appleseed && !cut {
		t.Fatal("fixture: the floor never cut an Appleseed neighborhood")
	}
}
