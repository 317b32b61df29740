// Package stereotype implements the §6 future-work direction the paper
// names explicitly: "we are currently investigating applicability of
// taxonomy-based profile generation for automated stereotype generation
// and efficient behavior modelling."
//
// A stereotype is a prototypical interest profile — a centroid over the
// taxonomy score space. The package learns K stereotypes from a
// community's taxonomy profiles with spherical k-means (cosine
// similarity, k-means++-style seeding, deterministic given a seed) and
// supports:
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
	"sort"

	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/sparse"
)

var (
	// ErrTooFewProfiles is returned when fewer non-empty profiles exist
	// than requested stereotypes.
	ErrTooFewProfiles = errors.New("stereotype: fewer non-empty profiles than stereotypes")
)

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
	Centroids []sparse.Vector
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

// ProfileFunc resolves an agent's interest profile (typically Profiles).
type ProfileFunc func(model.AgentID) sparse.Vector

// Profiles resolves agents of comm to their Eq. 3 taxonomy profiles
// (profile.Generator.ProfileCtx under the default settings), built on
// every call and converted from the row to a vector. Unknown agents, and
// every agent of a community without a taxonomy, have empty profiles.
func Profiles(comm *model.Community) ProfileFunc {
	tax := comm.Taxonomy()
	if tax == nil {
		return func(model.AgentID) sparse.Vector { return nil }
	}
	gen := profile.New(tax)
	return func(id model.AgentID) sparse.Vector {
		a := comm.Agent(id)
		if a == nil {
			return nil
		}
		row, _ := gen.ProfileCtx(context.Background(), a, comm) // errors only on cancellation
		v := sparse.New(row.NNZ())
		for i, k := range row.Keys {
			v[k] = row.Vals[i]
		}
		return v
	}
}

// Learn clusters the agents' profiles into opt.K stereotypes. Agents
// with empty profiles are skipped (they carry no behavior to model).
func Learn(ids []model.AgentID, profileOf ProfileFunc, opt Options) (*Model, error) {
	opt = opt.withDefaults()
	if opt.K < 1 {
		return nil, fmt.Errorf("stereotype: K must be >= 1, got %d", opt.K)
	}

	// Collect unit-normalized profiles.
	type member struct {
		id model.AgentID
		v  sparse.Vector
	}
	var members []member
	for _, id := range ids {
		v := profileOf(id)
		if n := v.Norm(); n > 0 {
			members = append(members, member{id: id, v: v.Clone().Scale(1 / n)})
		}
	}
	if len(members) < opt.K {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewProfiles, len(members), opt.K)
	}

	// k-means++-style seeding: first centroid uniform, then proportional
	// to (1 - maxSim)² against chosen centroids.
	rng := rand.New(rand.NewSource(opt.Seed))
	centroids := make([]sparse.Vector, 0, opt.K)
	centroids = append(centroids, members[rng.Intn(len(members))].v.Clone())
	dist := make([]float64, len(members))
	for len(centroids) < opt.K {
		total := 0.0
		for i, m := range members {
			best := 0.0
			for _, c := range centroids {
				if s := sparse.Dot(m.v, c); s > best {
					best = s
				}
			}
			d := 1 - best
			dist[i] = d * d
			total += dist[i]
		}
		pick := len(members) - 1
		if total > 0 {
			r := rng.Float64() * total
			for i := range members {
				r -= dist[i]
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(len(members))
		}
		centroids = append(centroids, members[pick].v.Clone())
	}

	// Lloyd iterations with cosine assignment and renormalized mean
	// centroids (spherical k-means).
	assign := make([]int, len(members))
	for i := range assign {
		assign[i] = -1
	}
	iterations := 0
	for ; iterations < opt.MaxIterations; iterations++ {
		changed := false
		for i, m := range members {
			bestK, bestS := 0, math.Inf(-1)
			for k, c := range centroids {
				if s := sparse.Dot(m.v, c); s > bestS {
					bestS, bestK = s, k
				}
			}
			if assign[i] != bestK {
				assign[i] = bestK
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids as renormalized member means; empty
		// clusters are reseeded from the farthest member.
		sums := make([]sparse.Vector, opt.K)
		counts := make([]int, opt.K)
		for k := range sums {
			sums[k] = sparse.New(16)
		}
		for i, m := range members {
			k := assign[i]
			counts[k]++
			for dim, x := range m.v {
				sums[k].Add(dim, x)
			}
		}
		for k := range centroids {
			if counts[k] == 0 {
				worst, worstSim := 0, math.Inf(1)
				for i, m := range members {
					if s := sparse.Dot(m.v, centroids[assign[i]]); s < worstSim {
						worstSim, worst = s, i
					}
				}
				centroids[k] = members[worst].v.Clone()
				continue
			}
			if n := sums[k].Norm(); n > 0 {
				centroids[k] = sums[k].Scale(1 / n)
			}
		}
	}

	m := &Model{
		Centroids:  centroids,
		Assignment: make(map[model.AgentID]int, len(members)),
		Sizes:      make([]int, opt.K),
		Iterations: iterations,
	}
	var cohesion float64
	for i, mem := range members {
		k := assign[i]
		m.Assignment[mem.id] = k
		m.Sizes[k]++
		cohesion += sparse.Dot(mem.v, centroids[k])
	}
	m.Cohesion = cohesion / float64(len(members))
	return m, nil
}

// K returns the number of stereotypes.
func (m *Model) K() int { return len(m.Centroids) }

// Classify returns the nearest stereotype for an arbitrary profile and
// the cosine similarity to its centroid; ok is false for empty profiles.
// This is the "behavior modelling" entry point for agents that were not
// part of the learning set (e.g. fresh crawl arrivals).
func (m *Model) Classify(v sparse.Vector) (k int, sim float64, ok bool) {
	n := v.Norm()
	if n == 0 {
		return 0, 0, false
	}
	bestK, bestS := 0, math.Inf(-1)
	for i, c := range m.Centroids {
		if s := sparse.Dot(v, c) / n; s > bestS {
			bestS, bestK = s, i
		}
	}
	return bestK, bestS, true
}

// Members returns the learned members of stereotype k, sorted by ID.
func (m *Model) Members(k int) []model.AgentID {
	var out []model.AgentID
	for id, kk := range m.Assignment {
		if kk == k {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	var out []TopicWeight
	for _, e := range m.Centroids[k].TopK(n) {
		out = append(out, TopicWeight{Topic: e.Key, Weight: e.Value})
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
	majority := make([]map[int]int, m.K())
	for k := range majority {
		majority[k] = map[int]int{}
	}
	for id, k := range m.Assignment {
		majority[k][truth[id]]++
	}
	correct := 0
	for k := range majority {
		best := 0
		for _, n := range majority[k] {
			if n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(m.Assignment))
}
