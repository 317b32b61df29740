package model

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mapRef is the statement store as maps, the representation the rows
// replaced: per agent a map per relation, the served order derived by
// sorting on every read. It applies what the Community mutators apply,
// checking what they check, so a row store that agrees with it after
// every mutation keeps the old semantics: last write wins, retraction
// restores ⊥, ties break by URI.
type mapRef struct {
	agents   []AgentID
	products []ProductID
	name     map[AgentID]string
	trust    map[AgentID]map[AgentID]float64
	ratings  map[AgentID]map[ProductID]float64
	catalog  map[ProductID]bool
}

func newMapRef() *mapRef {
	return &mapRef{
		name:    map[AgentID]string{},
		trust:   map[AgentID]map[AgentID]float64{},
		ratings: map[AgentID]map[ProductID]float64{},
		catalog: map[ProductID]bool{},
	}
}

func (r *mapRef) ensure(id AgentID) {
	if _, ok := r.trust[id]; !ok {
		r.agents = append(r.agents, id)
		r.trust[id] = map[AgentID]float64{}
		r.ratings[id] = map[ProductID]float64{}
	}
}

func (r *mapRef) apply(o op) error {
	switch o.kind {
	case 0:
		if o.src == o.dst {
			return ErrSelfTrust
		}
		if !InRange(o.value) {
			return ErrValueRange
		}
		r.ensure(o.dst)
		r.ensure(o.src)
		r.trust[o.src][o.dst] = o.value
	case 2:
		delete(r.trust[o.src], o.dst)
	case 3:
		if !InRange(o.value) {
			return ErrValueRange
		}
		if !r.catalog[o.product] {
			return ErrUnknownProduct
		}
		r.ensure(o.src)
		r.ratings[o.src][o.product] = o.value
	case 5:
		delete(r.ratings[o.src], o.product)
	case 6:
		r.ensure(o.src)
		r.name[o.src] = o.name
	default:
		if !r.catalog[o.entry.ID] {
			r.catalog[o.entry.ID] = true
			r.products = append(r.products, o.entry.ID)
		}
	}
	return nil
}

// sorted is a relation's served order, derived from its map.
func sorted[K ~string](m map[K]float64) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(x, y K) int {
		if c := cmp.Compare(m[y], m[x]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return out
}

// agreeWithMaps fails unless c answers every read the way the maps do.
func agreeWithMaps(t *testing.T, what string, c *Community, r *mapRef) {
	t.Helper()
	if !slices.Equal(c.Agents(), r.agents) || !slices.Equal(c.Products(), r.products) {
		t.Fatalf("%s: registries %v %v, maps %v %v", what, c.Agents(), c.Products(), r.agents, r.products)
	}
	var st Stats
	for _, id := range r.agents {
		a := c.Agent(id)
		if a.Name != r.name[id] {
			t.Fatalf("%s: %s is named %q, maps %q", what, id, a.Name, r.name[id])
		}
		var wantTrust []TrustStatement
		for _, dst := range sorted(r.trust[id]) {
			wantTrust = append(wantTrust, TrustStatement{Src: id, Dst: dst, Value: r.trust[id][dst]})
			if r.trust[id][dst] < 0 {
				st.DistrustEdges++
			}
		}
		var wantRatings, wantPos []RatingStatement
		for _, p := range sorted(r.ratings[id]) {
			rs := RatingStatement{Agent: id, Product: p, Value: r.ratings[id][p]}
			wantRatings = append(wantRatings, rs)
			if rs.Value > 0 {
				wantPos = append(wantPos, rs)
			}
		}
		st.TrustEdges += len(wantTrust)
		st.Ratings += len(wantRatings)
		if got := c.TrustStatements(a); !slices.Equal(got, wantTrust) {
			t.Fatalf("%s: %s trusts %v, maps %v", what, id, got, wantTrust)
		}
		if got := c.RatingStatements(a); !slices.Equal(got, wantRatings) {
			t.Fatalf("%s: %s rates %v, maps %v", what, id, got, wantRatings)
		}
		pos := a.PositiveRatings()
		if len(pos) != len(wantPos) {
			t.Fatalf("%s: %s has %d positive ratings, maps %d", what, id, len(pos), len(wantPos))
		}
		for k, e := range pos {
			if c.prodIDs[e.Ord] != wantPos[k].Product || e.Val != wantPos[k].Value {
				t.Fatalf("%s: %s positive rating %d differs", what, id, k)
			}
		}
		adj := c.Adjacency()
		if !sameRow(adj.Trust(a.Ord()), a.TrustedPeers()) || !sameRow(adj.Ratings(a.Ord()), a.RatedProducts()) {
			t.Fatalf("%s: %s: the adjacency reads other rows", what, id)
		}
		for _, dst := range poolAgents {
			v, ok := c.Trust(id, dst)
			wv, wok := r.trust[id][dst]
			if v != wv || ok != wok {
				t.Fatalf("%s: Trust(%s,%s) = %v,%v, maps %v,%v", what, id, dst, v, ok, wv, wok)
			}
		}
		for _, p := range poolProducts {
			v, ok := c.Rating(id, p)
			wv, wok := r.ratings[id][p]
			if v != wv || ok != wok {
				t.Fatalf("%s: Rating(%s,%s) = %v,%v, maps %v,%v", what, id, p, v, ok, wv, wok)
			}
		}
	}
	got := c.ComputeStats()
	if got.TrustEdges != st.TrustEdges || got.Ratings != st.Ratings || got.DistrustEdges != st.DistrustEdges {
		t.Fatalf("%s: stats %+v, maps %+v", what, got, st)
	}
}

// TestRowStoreMatchesMapReference drives seeded mutation streams — the
// generation tests' mutator — down a chain of clones, each written
// beside a map reference, and compares every read after every mutation.
func TestRowStoreMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tax, topics := testTaxonomy(t)
		m := &mutator{rng: rand.New(rand.NewSource(seed)), topics: topics}
		c, ref := NewCommunity(tax), newMapRef()
		var seedOps []op
		for _, pid := range poolProducts[:len(poolProducts)/2] {
			seedOps = append(seedOps, op{kind: 7, entry: Product{ID: pid}})
		}
		for _, id := range poolAgents[:len(poolAgents)/2] {
			seedOps = append(seedOps, op{kind: 6, src: id})
		}
		for _, o := range seedOps {
			_, _ = o.apply(c), ref.apply(o)
		}
		for g := 0; g < 5; g++ {
			for s := 0; s < 150; s++ {
				o := m.next(c)
				err, rerr := o.apply(c), ref.apply(o)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("seed %d: %s: %v on the rows, %v on the maps", seed, o, err, rerr)
				}
				agreeWithMaps(t, fmt.Sprintf("seed %d generation %d step %d %s", seed, g, s, o), c, ref)
			}
			c = c.Clone()
		}
	}
}
