// Package stereotype implements the §6 future-work direction the paper
// names explicitly: "we are currently investigating applicability of
// taxonomy-based profile generation for automated stereotype generation
// and efficient behavior modelling."
//
// A stereotype is a prototypical interest profile — a centroid row over
// the taxonomy score space. The package learns K stereotypes from a
// community's taxonomy profiles with spherical k-means (cosine
// similarity, k-means++-style seeding, bit-reproducible given a seed)
// and supports:
//
//   - behavior modelling: describing each stereotype by its dominant
//     taxonomy branches (TopTopics) and measuring cluster quality
//     (Cohesion, and purity against ground truth in the experiments);
//   - efficient pre-filtering: restricting collaborative filtering to
//     the active agent's own stereotype — the latency-problem remedy
//     category-based filtering aims at (Sollenborn & Funk [14]), rebuilt
//     on taxonomy profiles.
package stereotype

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"swrec/internal/cf"
	"swrec/internal/model"
	"swrec/internal/profmat"
)

// ErrTooFewProfiles is returned when fewer non-empty profiles exist than
// requested stereotypes.
var ErrTooFewProfiles = errors.New("stereotype: fewer non-empty profiles than stereotypes")

// Options parameterize learning.
type Options struct {
	// K is the number of stereotypes. Required, ≥ 1.
	K int
	// MaxIterations bounds the k-means loop. Default 50.
	MaxIterations int
	// Seed drives centroid initialization. Default 1.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Model is a learned set of stereotypes.
type Model struct {
	// Centroids are the stereotype profiles, unit-normalized.
	Centroids []profmat.Row
	// Assignment maps each learned agent to its stereotype index.
	Assignment map[model.AgentID]int
	// Sizes[k] is the number of members of stereotype k.
	Sizes []int
	// Iterations the k-means loop ran until convergence or the cap.
	Iterations int
	// Cohesion is the mean cosine similarity of members to their own
	// centroid — the tightness of the behavior model.
	Cohesion float64
}

// ProfileFunc resolves an agent's interest profile (typically Profiles);
// nil stands for an empty profile.
type ProfileFunc func(model.AgentID) *profmat.Row

// Profiles resolves agents of comm to their Eq. 3 taxonomy profiles: the
// rows of the community's profile matrix as cf.New compiles it under the
// default taxonomy options, compiled once, here. Unknown agents, and
// every agent of a community without a taxonomy, have empty profiles.
func Profiles(comm *model.Community) ProfileFunc {
	var mat *profmat.Matrix
	if f, err := cf.New(comm, cf.Options{}); err == nil { // fails only without a taxonomy
		_ = f.Compile(context.Background()) // fails only on cancellation
		mat = f.Matrix()
	}
	sym := comm.Symbols()
	return func(id model.AgentID) *profmat.Row {
		if ord, ok := sym.AgentOrd(id); ok {
			return mat.Row(ord)
		}
		return nil
	}
}

// Learn clusters the agents' profiles into opt.K stereotypes. Agents
// with empty profiles are skipped (they carry no behavior to model).
// Every similarity is Scratch.CosineTo and every sum runs in member order.
func Learn(ids []model.AgentID, profileOf ProfileFunc, opt Options) (*Model, error) {
	opt = opt.withDefaults()
	if opt.K < 1 {
		return nil, fmt.Errorf("stereotype: K must be >= 1, got %d", opt.K)
	}
	var members []model.AgentID
	var rows []*profmat.Row
	dims := 0
	for _, id := range ids {
		if r := profileOf(id); r != nil && r.Norm > 0 {
			members, rows = append(members, id), append(rows, r)
			dims = max(dims, lastKey(r)+1)
		}
	}
	if len(rows) < opt.K {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewProfiles, len(rows), opt.K)
	}
	sc := profmat.NewScratch(dims)
	// cosines returns every member's cosine to every centroid of cs,
	// member-major: out[i*len(cs)+k] compares member i with cs[k].
	cosines := func(cs []profmat.Row) []float64 {
		out := make([]float64, len(rows)*len(cs))
		for k := range cs {
			sc.Load(&cs[k])
			for i, r := range rows {
				out[i*len(cs)+k], _ = sc.CosineTo(r)
			}
		}
		return out
	}

	// k-means++-style seeding: first centroid uniform, then proportional
	// to (1 - maxSim)² against chosen centroids.
	rng := rand.New(rand.NewSource(opt.Seed))
	g := profmat.NewGatherer(dims, 0)
	centroids := []profmat.Row{unit(g, rows[rng.Intn(len(rows))])}
	best := make([]float64, len(rows)) // cosine to the nearest chosen centroid, floored at 0
	for len(centroids) < opt.K {
		total := 0.0
		for i, s := range cosines(centroids[len(centroids)-1:]) {
			best[i] = max(best[i], s)
			total += float64((1 - best[i]) * (1 - best[i]))
		}
		pick := len(rows) - 1
		if total > 0 {
			r := rng.Float64() * total
			for i := range rows {
				r -= float64((1 - best[i]) * (1 - best[i]))
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(len(rows))
		}
		centroids = append(centroids, unit(g, rows[pick]))
	}

	// Lloyd iterations with cosine assignment and renormalized mean
	// centroids (spherical k-means).
	assign := make([]int, len(rows))
	for i := range assign {
		assign[i] = -1
	}
	// own returns each member's cosine to its own centroid.
	own := func() []float64 {
		all := cosines(centroids)
		for i, k := range assign {
			all[i] = all[i*opt.K+k]
		}
		return all[:len(rows)]
	}
	iterations := 0
	for ; iterations < opt.MaxIterations; iterations++ {
		all, changed := cosines(centroids), false
		for i := range rows {
			cs := all[i*opt.K : (i+1)*opt.K]
			k := slices.Index(cs, slices.Max(cs)) // the first nearest
			changed = changed || assign[i] != k
			assign[i] = k
		}
		if !changed {
			break
		}
		// Each centroid is its members' unit rows summed in member order
		// and renormalized; an empty cluster is reseeded from the member
		// farthest from its own centroid.
		g = profmat.NewGatherer(dims, 0) // this pass's centroids, in arenas of their own
		for k := range centroids {
			n := 0
			for i, r := range rows {
				if assign[i] == k {
					addUnit(g, r)
					n++
				}
			}
			if sum := g.Gather(); n == 0 {
				o := own()
				centroids[k] = unit(g, rows[slices.Index(o, slices.Min(o))])
			} else if sum.Norm > 0 {
				centroids[k] = unit(g, &sum)
			}
		}
	}

	m := &Model{
		Centroids:  centroids,
		Assignment: make(map[model.AgentID]int, len(rows)),
		Sizes:      make([]int, opt.K),
		Iterations: iterations,
	}
	var cohesion float64
	for i, s := range own() {
		m.Assignment[members[i]] = assign[i]
		m.Sizes[assign[i]]++
		cohesion += s
	}
	m.Cohesion = cohesion / float64(len(rows))
	return m, nil
}

// addUnit adds r, scaled to unit length, into g.
func addUnit(g *profmat.Gatherer, r *profmat.Row) {
	inv := 1 / r.Norm
	for i, k := range r.Keys {
		g.Add(k, float64(r.Vals[i]*inv))
	}
}

// unit returns r scaled to unit length, gathered in g.
func unit(g *profmat.Gatherer, r *profmat.Row) profmat.Row {
	addUnit(g, r)
	return g.Gather()
}

// lastKey returns r's largest dimension, -1 for an empty row.
func lastKey(r *profmat.Row) int {
	if len(r.Keys) == 0 {
		return -1
	}
	return int(r.Keys[len(r.Keys)-1])
}

// K returns the number of stereotypes.
func (m *Model) K() int { return len(m.Centroids) }

// scratch recycles Classify's scratch.
var scratch profmat.Pool

// Classify returns the nearest stereotype for an arbitrary profile and
// the cosine similarity to its centroid; ok is false for empty profiles.
// This is the "behavior modelling" entry point for agents that were not
// part of the learning set (e.g. fresh crawl arrivals).
func (m *Model) Classify(r *profmat.Row) (k int, sim float64, ok bool) {
	if r == nil || r.Norm == 0 {
		return 0, 0, false
	}
	dims := lastKey(r) + 1
	for i := range m.Centroids {
		dims = max(dims, lastKey(&m.Centroids[i])+1)
	}
	sc := scratch.Get(dims)
	defer scratch.Put(sc)
	sc.Load(r)
	sim = math.Inf(-1)
	for i := range m.Centroids {
		if s, _ := sc.CosineTo(&m.Centroids[i]); s > sim {
			k, sim = i, s
		}
	}
	return k, sim, true
}

// Members returns the learned members of stereotype k, sorted by ID.
func (m *Model) Members(k int) []model.AgentID {
	var out []model.AgentID
	for id, kk := range m.Assignment {
		if kk == k {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// TopicWeight is one (topic dimension, weight) pair of a stereotype
// description.
type TopicWeight struct {
	Topic  int32
	Weight float64
}

// TopTopics describes stereotype k by its n heaviest taxonomy dimensions
// — the prototype's dominant interest branches.
func (m *Model) TopTopics(k, n int) []TopicWeight {
	if k < 0 || k >= len(m.Centroids) {
		return nil
	}
	c := &m.Centroids[k]
	var out []TopicWeight
	for _, i := range c.TopK(n) {
		out = append(out, TopicWeight{Topic: c.Keys[i], Weight: c.Vals[i]})
	}
	return out
}

// Purity measures the model against a ground-truth labeling: the
// weighted fraction of each stereotype's members that share its majority
// label. 1 means stereotypes reproduce the ground truth exactly.
func (m *Model) Purity(truth map[model.AgentID]int) float64 {
	if len(m.Assignment) == 0 {
		return 0
	}
	members := make(map[[2]int]int) // (stereotype, label) → members
	majority := make([]int, m.K())
	for id, k := range m.Assignment {
		key := [2]int{k, truth[id]}
		members[key]++
		majority[k] = max(majority[k], members[key])
	}
	correct := 0
	for _, n := range majority {
		correct += n
	}
	return float64(correct) / float64(len(m.Assignment))
}
