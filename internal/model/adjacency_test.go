package model

import (
	"slices"
	"testing"
)

// TestAdjacencyMatchesStatementViews pins the adjacency to the per-agent
// rows it reads on the cold path: every agent's trust row and rating row,
// targets as ordinals, positive statements a prefix of each.
func TestAdjacencyMatchesStatementViews(t *testing.T) {
	c := symCommunity(t, 2, 60, 30)
	// Distrust, a zero statement and a negative rating must keep their
	// places in the rows.
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

	adj := c.Adjacency()
	if adj.NumAgents() != c.NumAgents() || adj.NumProducts() != c.NumProducts() {
		t.Fatalf("adjacency covers %d/%d, community %d/%d", adj.NumAgents(), adj.NumProducts(), c.NumAgents(), c.NumProducts())
	}
	for _, id := range c.Agents() {
		a := c.Agent(id)
		if adj.Agent(a.Ord()) != a {
			t.Fatalf("Agent(%d) is not the registry's record of %s", a.Ord(), id)
		}
		for name, pair := range map[string][2]Row{
			"trust":   {adj.Trust(a.Ord()), a.TrustedPeers()},
			"ratings": {adj.Ratings(a.Ord()), a.RatedProducts()},
		} {
			if !sameRow(pair[0], pair[1]) {
				t.Fatalf("%s: %s row %v, the record's %v", id, name, pair[0], pair[1])
			}
			if p := pair[1].Positive(); slices.ContainsFunc(pair[1][len(p):], func(e Entry) bool { return e.Val > 0 }) {
				t.Fatalf("%s: %s: positive statement after a non-positive one", id, name)
			}
		}
		for _, e := range a.TrustedPeers() {
			if e.Ord == a.Ord() {
				t.Fatalf("%s trusts itself", id)
			}
		}
	}
}
