// Package attack grows adversarial structures inside a datagen
// community so the load harness can test the paper's security claim
// quantitatively: Appleseed's local, energy-conserving trust metric is
// supposed to confine identities that fabricate trust or clone rating
// profiles, because energy only reaches an agent through edges honest
// agents chose to assert. Each injector builds one textbook attack —
// a Sybil ring, a trust-spam hub, a rating-shilling clique — and
// measure.go turns "confined" into numbers: attacker share of trust-rank
// mass, honest top-K rank perturbation, pushed-item exposure.
//
// Injection is fully deterministic: attacker identities, edges, and
// pushed products are pure functions of the Spec and the community's
// agent order. No clock, no random source.
package attack

import (
	"fmt"

	"swrec/internal/isbn"
	"swrec/internal/model"
)

// Kind names one adversarial scenario.
type Kind string

const (
	// SybilRing: Count fabricated identities certify each other in a
	// densely wired ring, clone the victim's rating profile, and push
	// planted products. One bridge edge (the victim certifying ring
	// member 0) models the social-engineering foothold; the claim under
	// test is that energy entering through one edge cannot be amplified
	// by any amount of intra-ring wiring.
	SybilRing Kind = "sybil-ring"
	// TrustSpamHub: Count spammer identities mass-issue trust edges to
	// honest agents (bait certifications) and funnel their own trust
	// into one hub that pushes products. No honest agent reciprocates,
	// so no energy should reach the hub at all: out-edges are free to
	// fabricate, in-edges are not.
	TrustSpamHub Kind = "trust-spam-hub"
	// ShillingClique: Count identities clone the victim's rating profile
	// (maximal similarity) and rate planted products top marks, with no
	// trust edges. Tests that neighborhoods are trust-gated: similarity
	// alone must not buy a seat.
	ShillingClique Kind = "rating-shilling"
)

// Spec configures one injected attack plus the confinement bounds the
// harness asserts afterwards. The zero value of a bound disables that
// assertion. The bounds state the paper's claim about trust-gated
// neighborhoods, and the harness asserts them against the measurement
// taken under the serving default — the similarity blend over the
// bounded, floor-gated neighborhood; the pure trust weighting (alpha=1)
// is measured alongside and drift-tracked.
type Spec struct {
	Kind  Kind `json:"kind"`
	Count int  `json:"count"` // attacker identities (≥1)
	// VictimIdx selects the honest agent (by community order) whose
	// rating profile attackers clone and, for SybilRing, who is bridged
	// into the ring.
	VictimIdx int `json:"victimIdx"`
	// PushProducts is how many planted products the attackers mint and
	// rate top marks.
	PushProducts int `json:"pushProducts"`
	// FanoutTargets (TrustSpamHub) is how many honest agents each
	// spammer "certifies".
	FanoutTargets int `json:"fanoutTargets,omitempty"`

	// MaxEnergyShare bounds the attacker share of trust-rank mass
	// across sampled honest neighborhoods.
	MaxEnergyShare float64 `json:"maxEnergyShare,omitempty"`
	// MaxRankPerturbation bounds how far any honest top-K item may be
	// displaced by the attack (K counts as "evicted").
	MaxRankPerturbation int `json:"maxRankPerturbation,omitempty"`
	// MaxPushedRate bounds the fraction of sampled honest agents whose
	// top-K recommendations contain a pushed product.
	MaxPushedRate float64 `json:"maxPushedRate,omitempty"`
}

// Result records what an injector added to the community.
type Result struct {
	Spec    Spec
	IDs     []model.AgentID   // attacker identities, injection order
	Pushed  []model.ProductID // planted products
	Victim  model.AgentID
	IDSet   map[model.AgentID]bool
	PushSet map[model.ProductID]bool
}

// Inject applies one attack spec to comm. ordinal namespaces attacker
// identities and pushed products when a scenario stacks several attacks.
// The honest agent list must be captured by the caller before any
// injection; it anchors victim selection and spam fan-out so stacked
// attacks cannot target each other's identities.
func Inject(comm *model.Community, honest []model.AgentID, spec Spec, ordinal int) (*Result, error) {
	if len(honest) == 0 {
		return nil, fmt.Errorf("attack: empty community")
	}
	if spec.Count < 1 {
		return nil, fmt.Errorf("attack %s: count must be ≥ 1", spec.Kind)
	}
	res := &Result{
		Spec:   spec,
		Victim: honest[spec.VictimIdx%len(honest)],
	}
	res.IDs = make([]model.AgentID, spec.Count)
	for i := range res.IDs {
		res.IDs[i] = model.AgentID(fmt.Sprintf("http://attack.example/a%d-%s/s%d", ordinal, spec.Kind, i))
		comm.AddAgent(res.IDs[i])
	}
	res.Pushed = mintPushed(comm, spec.PushProducts, ordinal)

	var err error
	switch spec.Kind {
	case SybilRing:
		err = injectSybilRing(comm, res)
	case TrustSpamHub:
		err = injectTrustSpamHub(comm, honest, res)
	case ShillingClique:
		err = injectShillingClique(comm, res)
	default:
		return nil, fmt.Errorf("attack: unknown kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	res.IDSet = make(map[model.AgentID]bool, len(res.IDs))
	for _, id := range res.IDs {
		res.IDSet[id] = true
	}
	res.PushSet = make(map[model.ProductID]bool, len(res.Pushed))
	for _, p := range res.Pushed {
		res.PushSet[p] = true
	}
	return res, nil
}

// mintPushed registers n planted products. The ISBN sequence block is
// far above anything datagen synthesizes (catalogs top out around 10^5)
// so planted IDs never collide with honest ones.
func mintPushed(comm *model.Community, n, ordinal int) []model.ProductID {
	pushed := make([]model.ProductID, n)
	for i := range pushed {
		code := isbn.Synthesize(5_000_000 + ordinal*1_000 + i)
		id := model.ProductID(isbn.URN(code))
		comm.AddProduct(model.Product{ID: id, Title: fmt.Sprintf("Planted %d/%d", ordinal, i)})
		pushed[i] = id
	}
	return pushed
}

// cloneProfile copies the victim's rating statements onto dst and adds
// top-mark ratings for every pushed product — the standard shilling
// profile: maximally similar, planted payload on top.
func cloneProfile(comm *model.Community, res *Result, dst model.AgentID) error {
	va := comm.Agent(res.Victim)
	for _, rs := range va.RatedProducts() {
		if err := comm.SetRating(dst, rs.Product, rs.Value); err != nil {
			return err
		}
	}
	for _, p := range res.Pushed {
		if err := comm.SetRating(dst, p, 1); err != nil {
			return err
		}
	}
	return nil
}

func injectSybilRing(comm *model.Community, res *Result) error {
	ids := res.IDs
	for i, id := range ids {
		if err := cloneProfile(comm, res, id); err != nil {
			return err
		}
		// Dense ring wiring: each Sybil certifies the next two, maximal
		// weight. Internally the ring can circulate whatever it likes.
		if err := comm.SetTrust(id, ids[(i+1)%len(ids)], 1); err != nil {
			return err
		}
		if len(ids) > 2 {
			if err := comm.SetTrust(id, ids[(i+2)%len(ids)], 1); err != nil {
				return err
			}
		}
		// Sybils also certify the victim so the ring looks socially
		// embedded to anyone inspecting edges.
		if err := comm.SetTrust(id, res.Victim, 1); err != nil {
			return err
		}
	}
	// The single honest→Sybil bridge: the victim was tricked into one
	// certification. All energy the ring will ever see flows over this.
	return comm.SetTrust(res.Victim, ids[0], 0.8)
}

func injectTrustSpamHub(comm *model.Community, honest []model.AgentID, res *Result) error {
	hub := res.IDs[0]
	if err := cloneProfile(comm, res, hub); err != nil {
		return err
	}
	fanout := res.Spec.FanoutTargets
	if fanout < 1 {
		fanout = 8
	}
	// Spread spam targets across the honest population with a stride so
	// stacked specs with different counts still cover distinct agents.
	stride := len(honest) / (res.Spec.Count * fanout)
	if stride < 1 {
		stride = 1
	}
	for i, id := range res.IDs[1:] {
		if err := comm.SetTrust(id, hub, 1); err != nil {
			return err
		}
		for j := 0; j < fanout; j++ {
			t := honest[((i*fanout+j)*stride)%len(honest)]
			if err := comm.SetTrust(id, t, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

func injectShillingClique(comm *model.Community, res *Result) error {
	for _, id := range res.IDs {
		if err := cloneProfile(comm, res, id); err != nil {
			return err
		}
	}
	return nil
}
