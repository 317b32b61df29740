package stereotype

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/profmat"
)

// rowOf gathers the (dimension, value) pairs of kv into a row.
func rowOf(kv map[int32]float64) *profmat.Row {
	g := profmat.NewGatherer(64, len(kv))
	for k, v := range kv {
		g.Add(k, v)
	}
	r := g.Gather()
	return &r
}

// syntheticProfiles builds nClusters well-separated profile groups with
// nPer members each: cluster k has mass on dimensions [k*10, k*10+3).
func syntheticProfiles(nClusters, nPer int) ([]model.AgentID, ProfileFunc, map[model.AgentID]int) {
	profiles := map[model.AgentID]*profmat.Row{}
	truth := map[model.AgentID]int{}
	var ids []model.AgentID
	for k := 0; k < nClusters; k++ {
		for i := 0; i < nPer; i++ {
			id := model.AgentID(string(rune('a'+k)) + "-" + string(rune('0'+i)))
			v := map[int32]float64{}
			for d := 0; d < 3; d++ {
				v[int32(k*10+d)] = 1 + float64(i%3)*0.1
			}
			profiles[id] = rowOf(v)
			truth[id] = k
			ids = append(ids, id)
		}
	}
	return ids, func(id model.AgentID) *profmat.Row { return profiles[id] }, truth
}

func TestLearnRecoversClusters(t *testing.T) {
	ids, pf, truth := syntheticProfiles(4, 8)
	m, err := Learn(ids, pf, Options{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 4 {
		t.Fatalf("K = %d", m.K())
	}
	if got := m.Purity(truth); got != 1 {
		t.Fatalf("purity = %v, want 1 on perfectly separated clusters", got)
	}
	if m.Cohesion < 0.99 {
		t.Fatalf("cohesion = %v, want ≈1", m.Cohesion)
	}
	total := 0
	for _, s := range m.Sizes {
		total += s
	}
	if total != len(ids) {
		t.Fatalf("sizes sum %d != members %d", total, len(ids))
	}
}

func TestLearnDeterministic(t *testing.T) {
	ids, pf, _ := syntheticProfiles(3, 10)
	m1, err := Learn(ids, pf, Options{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Learn(ids, pf, Options{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for id, k := range m1.Assignment {
		if m2.Assignment[id] != k {
			t.Fatalf("nondeterministic assignment for %s", id)
		}
	}
}

func TestLearnErrors(t *testing.T) {
	ids, pf, _ := syntheticProfiles(2, 2)
	if _, err := Learn(ids, pf, Options{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := Learn(ids, pf, Options{K: 10}); !errors.Is(err, ErrTooFewProfiles) {
		t.Fatalf("got %v, want ErrTooFewProfiles", err)
	}
	// Empty profiles are skipped.
	empty := func(model.AgentID) *profmat.Row { return &profmat.Row{} }
	if _, err := Learn(ids, empty, Options{K: 1}); !errors.Is(err, ErrTooFewProfiles) {
		t.Fatalf("got %v, want ErrTooFewProfiles for all-empty", err)
	}
}

func TestClassify(t *testing.T) {
	ids, pf, truth := syntheticProfiles(3, 6)
	m, err := Learn(ids, pf, Options{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh profile near cluster 1 classifies into the stereotype whose
	// members carry truth label 1.
	fresh := rowOf(map[int32]float64{10: 1, 11: 0.9, 12: 1.1})
	k, sim, ok := m.Classify(fresh)
	if !ok || sim < 0.9 {
		t.Fatalf("Classify = %d,%v,%v", k, sim, ok)
	}
	for _, member := range m.Members(k) {
		if truth[member] != 1 {
			t.Fatalf("classified into stereotype containing member %s of cluster %d",
				member, truth[member])
		}
	}
	if _, _, ok := m.Classify(&profmat.Row{}); ok {
		t.Fatal("empty profile must not classify")
	}
	if _, _, ok := m.Classify(nil); ok {
		t.Fatal("nil profile must not classify")
	}
}

func TestTopTopics(t *testing.T) {
	ids, pf, _ := syntheticProfiles(2, 5)
	m, err := Learn(ids, pf, Options{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	top := m.TopTopics(0, 3)
	if len(top) != 3 {
		t.Fatalf("TopTopics = %d entries", len(top))
	}
	// The three top dimensions of one stereotype must be a contiguous
	// block k*10..k*10+2 for some cluster k.
	base := top[0].Topic / 10 * 10
	for _, tw := range top {
		if tw.Topic < base || tw.Topic > base+2 {
			t.Fatalf("TopTopics mixes clusters: %+v", top)
		}
		if tw.Weight <= 0 {
			t.Fatalf("non-positive weight: %+v", tw)
		}
	}
	if got := m.TopTopics(99, 3); got != nil {
		t.Fatal("out-of-range stereotype must return nil")
	}
}

func TestMembersSorted(t *testing.T) {
	ids, pf, _ := syntheticProfiles(2, 6)
	m, err := Learn(ids, pf, Options{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < m.K(); k++ {
		ms := m.Members(k)
		for i := 1; i < len(ms); i++ {
			if ms[i-1] >= ms[i] {
				t.Fatalf("Members(%d) not sorted: %v", k, ms)
			}
		}
	}
}

// TestOnGeneratedCommunity: stereotypes learned from taxonomy profiles
// recover the datagen interest clusters far better than chance.
func TestOnGeneratedCommunity(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.ClusterFidelity = 0.95
	comm, meta := datagen.Generate(cfg)
	m, err := Learn(comm.Agents(), Profiles(comm), Options{K: cfg.Clusters, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	purity := m.Purity(meta.AgentCluster)
	chance := 1.0 / float64(cfg.Clusters)
	if purity < 2.5*chance {
		t.Fatalf("purity %v barely beats chance %v", purity, chance)
	}
}

// TestLearnRepeatsBitForBit: every centroid is summed in member order and
// every similarity in key order, so twenty identical calls on a generated
// community give the same centroids and Cohesion, bit for bit.
func TestLearnRepeatsBitForBit(t *testing.T) {
	comm, _ := datagen.Generate(datagen.SmallScale())
	profiles := Profiles(comm)
	bits := func(m *Model) []uint64 {
		out := []uint64{math.Float64bits(m.Cohesion)}
		for _, c := range m.Centroids {
			for i, k := range c.Keys {
				out = append(out, uint64(k), math.Float64bits(c.Vals[i]))
			}
			out = append(out, math.Float64bits(c.Norm), math.Float64bits(c.Sum))
		}
		return out
	}
	var want []uint64
	for call := range 20 {
		m, err := Learn(comm.Agents(), profiles, Options{K: 6, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := bits(m); call == 0 {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("call %d: centroids or Cohesion differ from the first call's bits", call)
		}
	}
}

// Property: purity is in (0,1], sizes are non-negative and sum to the
// assignment count, and every centroid is unit-normalized.
func TestModelInvariantsProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%4) + 1
		ids, pf, truth := syntheticProfiles(4, 6)
		m, err := Learn(ids, pf, Options{K: k, Seed: seed})
		if err != nil {
			return false
		}
		total := 0
		for _, s := range m.Sizes {
			if s < 0 {
				return false
			}
			total += s
		}
		if total != len(m.Assignment) {
			return false
		}
		p := m.Purity(truth)
		if p <= 0 || p > 1 {
			return false
		}
		for _, c := range m.Centroids {
			if math.Abs(c.Norm-1) > 1e-6 {
				return false
			}
		}
		return m.Cohesion > 0 && m.Cohesion <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
