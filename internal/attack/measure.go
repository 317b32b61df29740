package attack

import (
	"fmt"

	"swrec/internal/core"
	"swrec/internal/model"
)

// Client is the read surface the confinement measures need. Both an
// in-process engine wrapper and the load harness's HTTP client satisfy
// it, so the same measurement runs against a live server or a local
// build of the identical community.
type Client interface {
	Neighbors(id model.AgentID, n int) ([]Peer, error)
	Recommendations(id model.AgentID, n int) ([]core.Recommendation, error)
}

// Peer is one neighbor as the API's /neighbors page names it: by URI,
// with its trust rank. An in-process client resolves the URI through
// the community's symbol table.
type Peer struct {
	Agent model.AgentID
	Trust float64
}

// Confinement quantifies how far one attack got. The paper's claim is
// that all three numbers stay near zero for Appleseed-gated
// neighborhoods no matter how much structure the attacker fabricates.
type Confinement struct {
	Kind Kind `json:"kind"`
	// EnergyShare is the attacker share of trust-rank mass summed over
	// the sampled honest agents' neighborhoods: Σ trust(attacker peers)
	// / Σ trust(all peers).
	EnergyShare float64 `json:"energyShare"`
	// MaxRankPerturbation is the worst displacement of an honest top-K
	// item between the clean and attacked community (K = evicted).
	MaxRankPerturbation int `json:"maxRankPerturbation"`
	// MeanRankPerturbation averages that displacement over all sampled
	// honest top-K items.
	MeanRankPerturbation float64 `json:"meanRankPerturbation"`
	// PushedRate is the fraction of sampled honest agents whose
	// attacked top-K contains a planted product.
	PushedRate float64 `json:"pushedRate"`
	Samples    int     `json:"samples"`
}

// Violations returns human-readable bound breaches, empty when the
// attack stayed confined within the Spec's limits.
func (c Confinement) Violations(spec Spec) []string {
	var v []string
	if spec.MaxEnergyShare > 0 && c.EnergyShare > spec.MaxEnergyShare {
		v = append(v, fmt.Sprintf("%s: energy share %.4f > bound %.4f",
			c.Kind, c.EnergyShare, spec.MaxEnergyShare))
	}
	if spec.MaxRankPerturbation > 0 && c.MaxRankPerturbation > spec.MaxRankPerturbation {
		v = append(v, fmt.Sprintf("%s: rank perturbation %d > bound %d",
			c.Kind, c.MaxRankPerturbation, spec.MaxRankPerturbation))
	}
	if spec.MaxPushedRate > 0 && c.PushedRate > spec.MaxPushedRate {
		v = append(v, fmt.Sprintf("%s: pushed-item rate %.4f > bound %.4f",
			c.Kind, c.PushedRate, spec.MaxPushedRate))
	}
	return v
}

// SampleHonest picks n measurement subjects deterministically spread
// across the honest agent list. The victim is always included — it is
// the agent with the best-case attack surface (direct bridge edge,
// cloned profile), so confinement numbers that hold for it hold
// a fortiori for the rest.
func SampleHonest(honest []model.AgentID, victim model.AgentID, n int) []model.AgentID {
	if n < 1 {
		n = 1
	}
	if n > len(honest) {
		n = len(honest)
	}
	out := make([]model.AgentID, 0, n)
	seen := map[model.AgentID]bool{victim: true}
	out = append(out, victim)
	stride := len(honest) / n
	if stride < 1 {
		stride = 1
	}
	for i := 0; len(out) < n && i < len(honest); i += stride {
		if !seen[honest[i]] {
			seen[honest[i]] = true
			out = append(out, honest[i])
		}
	}
	return out
}

// Measure computes the confinement numbers for one injected attack.
// base serves the clean community, attacked the injected one; sample is
// the honest agents to probe (see SampleHonest) and topK the
// recommendation depth under scrutiny. Probes that fail on both sides
// (e.g. agents with no computable neighborhood) are skipped; an error
// is returned only when every probe fails.
func Measure(base, attacked Client, res *Result, sample []model.AgentID, topK int) (Confinement, error) {
	c := Confinement{Kind: res.Spec.Kind}
	if topK < 1 {
		topK = 10
	}
	var massAll, massAttack float64
	var pushedHits, perturbItems int
	var perturbSum float64
	var firstErr error
	for _, id := range sample {
		peers, err := attacked.Neighbors(id, 0)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("neighbors(%s): %w", id, err)
			}
			continue
		}
		for _, p := range peers {
			massAll += p.Trust
			if res.IDSet[p.Agent] {
				massAttack += p.Trust
			}
		}

		before, errB := base.Recommendations(id, topK)
		after, errA := attacked.Recommendations(id, topK)
		if errB != nil || errA != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("recommendations(%s): base=%v attacked=%v", id, errB, errA)
			}
			continue
		}
		afterPos := make(map[model.ProductID]int, len(after))
		hit := false
		for i, r := range after {
			afterPos[r.Product] = i
			if res.PushSet[r.Product] {
				hit = true
			}
		}
		if hit {
			pushedHits++
		}
		for i, r := range before {
			d := topK - i // eviction cost when the item vanished
			if j, ok := afterPos[r.Product]; ok {
				d = j - i
				if d < 0 {
					d = -d
				}
			}
			perturbItems++
			perturbSum += float64(d)
			if d > c.MaxRankPerturbation {
				c.MaxRankPerturbation = d
			}
		}
		c.Samples++
	}
	if c.Samples == 0 {
		return c, fmt.Errorf("attack measure %s: every probe failed: %w", res.Spec.Kind, firstErr)
	}
	if massAll > 0 {
		c.EnergyShare = massAttack / massAll
	}
	if perturbItems > 0 {
		c.MeanRankPerturbation = perturbSum / float64(perturbItems)
	}
	c.PushedRate = float64(pushedHits) / float64(c.Samples)
	return c, nil
}
