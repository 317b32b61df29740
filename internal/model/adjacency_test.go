package model

import "testing"

// TestAdjacencyMatchesStatementViews pins the compiled relations to the
// per-agent views they replace on the cold path: the trust CSR is every
// agent's TrustedPeers minus self-edges (raw values, same order, targets
// as ordinals), the ratings CSR is PositiveRatings.
func TestAdjacencyMatchesStatementViews(t *testing.T) {
	c := symCommunity(t, 2, 60, 30)
	// Distrust, a zero statement and a negative rating must survive or
	// drop exactly as the views say.
	for _, e := range []struct {
		src, dst AgentID
		v        float64
	}{{"urn:a:1", "urn:a:2", -0.7}, {"urn:a:1", "urn:a:3", 0}, {"urn:a:1", "urn:a:4", 0.3}} {
		if err := c.SetTrust(e.src, e.dst, e.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetRating("urn:a:1", "urn:p:1", -0.5); err != nil {
		t.Fatal(err)
	}
	// A self-edge can only enter by writing the map directly.
	self := c.Agent("urn:a:1")
	self.Trust[self.ID] = 1
	self.MarkDirty()

	adj := c.Adjacency()
	if adj.NumAgents() != c.NumAgents() || adj.NumProducts() != c.NumProducts() {
		t.Fatalf("adjacency covers %d/%d, community %d/%d", adj.NumAgents(), adj.NumProducts(), c.NumAgents(), c.NumProducts())
	}
	trust, ratings := adj.Trust(), adj.Ratings()
	for _, id := range c.Agents() {
		a := c.Agent(id)
		if adj.Agent(a.Ord()) != a {
			t.Fatalf("Agent(%d) is not the registry's record of %s", a.Ord(), id)
		}
		idx, val := trust.Row(a.Ord())
		k := 0
		for _, st := range a.TrustedPeers() {
			if st.Dst == id {
				continue
			}
			if k >= len(idx) || adj.Agent(idx[k]).ID != st.Dst || val[k] != st.Value {
				t.Fatalf("%s: trust row entry %d does not match statement %+v", id, k, st)
			}
			if k > 0 && val[k-1] <= 0 && val[k] > 0 {
				t.Fatalf("%s: positive statement after a non-positive one", id)
			}
			k++
		}
		if k != len(idx) {
			t.Fatalf("%s: trust row has %d entries, statements %d", id, len(idx), k)
		}
		prods, vals := ratings.Row(a.Ord())
		pos := c.PositiveRatings(a)
		if len(prods) != len(pos) {
			t.Fatalf("%s: ratings row has %d entries, PositiveRatings %d", id, len(prods), len(pos))
		}
		for k, pr := range pos {
			if prods[k] != pr.Ord || vals[k] != pr.Value {
				t.Fatalf("%s: ratings row entry %d does not match %+v", id, k, pr)
			}
		}
	}
}
