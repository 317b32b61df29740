// Package core implements the paper's primary contribution: a decentralized
// recommender that integrates the two pillars — trust neighborhood
// formation (§3.2) and taxonomy-driven similarity filtering (§3.3) — and
// performs the rank synthesization and recommendation generation of §3.4.
//
// The pipeline for an active agent a_i, computed entirely locally on the
// materialized community view:
//
//  1. Trust neighborhood. A local group trust metric (Appleseed by
//     default) ranks the peers within a_i's trust computation range — a
//     bounded range: Appleseed explores at most R agents — and keeps
//     those whose rank reaches a floor relative to the best. This step
//     provides security (only opinions from trustworthy peers count) and
//     scalability (it pre-filters the candidate set, §2).
//  2. Similarity-based filtering. Collaborative filtering runs "over all
//     peers whose trustworthiness lies above some given threshold",
//     ranking them by taxonomy-profile similarity.
//  3. Rank synthesization. Trust rank and similarity rank merge into one
//     rank weight per peer, and the M peers of highest weight form the
//     neighborhood (§3.3's "M closest"). The paper leaves the merge open
//     ("we have not attacked latter issue yet"); we implement the natural
//     convex blend w(a_j) = α·trustNorm(a_j) + (1-α)·simNorm(a_j), with α
//     sweepable in experiment E7, plus the pure strategies as baselines.
//  4. Recommendation. "Every a_j votes for all its appreciated products
//     b_k ∈ r_j with its own rank weight", so products mentioned
//     positively in several high-weight histories rise to the top. The
//     content-driven alternative — proposing products from categories a_i
//     "has left untouched until now" — is available as NovelCategories.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"swrec/internal/cf"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
	"swrec/internal/trust"
)

// Metric selects the trust metric of stage 1.
type Metric int

const (
	// Appleseed is the paper's spreading-activation group trust metric
	// (default).
	Appleseed Metric = iota
	// Advogato is the boolean max-flow baseline.
	Advogato
	// PathTrust is the scalar path-multiplication baseline.
	PathTrust
	// NoTrust disables stage 1: every known agent is a candidate. This is
	// the pure centralized-CF baseline the paper argues cannot scale or
	// resist manipulation.
	NoTrust
)

// metricNames are the metrics' String names.
var metricNames = [...]string{Appleseed: "appleseed", Advogato: "advogato", PathTrust: "pathtrust", NoTrust: "none"}

// String names the metric for experiment output.
func (m Metric) String() string {
	if m >= 0 && int(m) < len(metricNames) {
		return metricNames[m]
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// ParseMetric is the inverse of Metric.String: the metric named s.
func ParseMetric(s string) (Metric, error) {
	if i := slices.Index(metricNames[:], s); i >= 0 {
		return Metric(i), nil
	}
	return 0, fmt.Errorf("metric must be appleseed|advogato|pathtrust|none, got %q", s)
}

// MergeMode selects how trust rank and similarity rank synthesize into
// one rank weight — §3.4 leaves the merge open and "numerous alternatives
// are possible"; experiment E7 compares these two.
type MergeMode int

const (
	// ScoreBlend (default) blends the normalized *values*:
	// w = α·trustNorm + (1-α)·max(sim, 0).
	ScoreBlend MergeMode = iota
	// BordaCount blends the *positions*: each peer scores (n-rank)/n in
	// the trust ordering and in the similarity ordering, and the two
	// Borda scores blend with α. Positions are robust to the wildly
	// different scales of trust metrics (Appleseed rank mass vs
	// Advogato's booleans) at the cost of discarding magnitudes.
	BordaCount
)

// String names the merge mode for experiment output.
func (m MergeMode) String() string {
	switch m {
	case ScoreBlend:
		return "score-blend"
	case BordaCount:
		return "borda"
	default:
		return fmt.Sprintf("MergeMode(%d)", int(m))
	}
}

// ContentMode selects the recommendation scheme of §3.4.
type ContentMode int

const (
	// Standard votes over all unseen products.
	Standard ContentMode = iota
	// NovelCategories restricts recommendations to products whose
	// descriptors all lie in branches the active profile has left
	// untouched, creating the "incentive for trying new product groups".
	NovelCategories
)

// The neighborhood bounds a zero Options field resolves to, chosen with
// trust.DefaultMaxNodes by the E12 sweep (EXPERIMENTS.md).
const (
	DefaultMaxNeighbors   = 150
	DefaultTrustThreshold = 0.0001
)

// Options configure a Recommender. The zero value gives the paper's
// default pipeline: Appleseed over a bounded range + taxonomy-Pearson CF
// + α = 0.5 blend over the M closest peers.
type Options struct {
	Metric    Metric
	Appleseed trust.AppleseedOptions
	Advogato  trust.AdvogatoOptions
	PathTrust trust.PathTrustOptions
	CF        cf.Options
	// TrustThreshold is the floor of stage 1: a peer whose trust rank,
	// relative to the neighborhood's best, falls below it is not a
	// neighbor — "peers whose trustworthiness lies above some given
	// threshold" (§3.3). In (0,1); default DefaultTrustThreshold.
	TrustThreshold float64
	// MaxNeighbors is M, the number of peers rank synthesization keeps:
	// the highest-weighted M vote in stage 4. At least 1; default
	// DefaultMaxNeighbors.
	MaxNeighbors int
	// Candidates, when non-nil, replaces stage 1 entirely: the returned
	// peers (each accorded trust rank 1) form the neighborhood. Custom
	// pre-filters — e.g. stereotype membership (package stereotype, the
	// §6 "efficient behavior modelling" direction) — plug in here.
	Candidates func(active model.AgentID) []model.AgentID
	// Alpha is the rank synthesization blend: 1 = pure trust, 0 = pure
	// similarity. Negative values are invalid; the default (zero value)
	// is interpreted as 0.5 unless AlphaSet marks an explicit zero.
	Alpha float64
	// AlphaSet marks Alpha as deliberately chosen (needed to express an
	// explicit α = 0, the pure-CF blend).
	AlphaSet bool
	// Merge selects the rank synthesization scheme (§3.4 alternatives).
	Merge MergeMode
	// Content selects the §3.4 recommendation scheme.
	Content ContentMode
	// ContentBoost β ≥ 0 blends content-based filtering into the vote
	// (the hybrid framing of §5 / Fab [17]): a product's vote score is
	// multiplied by (1 + β·match), where match ∈ [0,1] is the cosine
	// affinity between the active agent's taxonomy profile and the
	// product's propagated descriptor vector. 0 (default) disables it.
	ContentBoost float64
}

// alpha returns the effective blend factor.
func (o Options) alpha() float64 {
	if !o.AlphaSet && o.Alpha == 0 {
		return 0.5
	}
	return o.Alpha
}

// BlendAlpha returns the effective rank-synthesization blend factor —
// Alpha with the unset-zero default of 0.5 applied. Exported so serving
// layers that re-blend outside the recommender (the strategy ladder's
// taxonomy-ancestor rung) use exactly the α the pipeline would.
func (o Options) BlendAlpha() float64 { return o.alpha() }

// WithDefaults returns the options the pipeline actually runs: zero
// neighborhood bounds and zero Appleseed parameters replaced by their
// defaults. New applies it; a checkpoint signs it, so an image is only
// restored under options that mean the same.
func (o Options) WithDefaults() Options {
	if o.TrustThreshold == 0 {
		o.TrustThreshold = DefaultTrustThreshold
	}
	if o.MaxNeighbors == 0 {
		o.MaxNeighbors = DefaultMaxNeighbors
	}
	o.Appleseed = o.Appleseed.WithDefaults()
	return o
}

// validate checks defaulted options for a community with taxonomy tax.
func (o Options) validate(tax *taxonomy.Taxonomy) error {
	if a := o.alpha(); a < 0 || a > 1 {
		return fmt.Errorf("core: alpha must be in [0,1], got %v", a)
	}
	if o.TrustThreshold <= 0 || o.TrustThreshold >= 1 {
		return fmt.Errorf("core: trust threshold must be in (0,1), got %v", o.TrustThreshold)
	}
	if o.MaxNeighbors < 1 {
		return fmt.Errorf("core: max neighbors must be positive, got %d", o.MaxNeighbors)
	}
	if o.ContentBoost < 0 {
		return fmt.Errorf("core: content boost must be >= 0, got %v", o.ContentBoost)
	}
	if o.ContentBoost > 0 && tax == nil {
		return fmt.Errorf("core: content boost requires a taxonomy")
	}
	return nil
}

// ErrUnknownAgent is returned when the active agent is not materialized.
var ErrUnknownAgent = errors.New("core: unknown active agent")

// PeerRank is one peer after rank synthesization: its trust rank,
// similarity, and merged overall rank weight. Build one with NewPeerRank:
// the similarity scan and the vote address the peer by the ordinal it
// carries and never resolve its URI. The zero value names no agent of the
// community — it scans as an empty profile and votes for nothing.
type PeerRank struct {
	Agent model.AgentID
	Trust float64 // normalized trust rank in [0,1]
	Sim   float64 // raw similarity in [-1,1]; 0 if undefined
	SimOK bool    // whether similarity was defined
	// ord is the peer's community ordinal + 1 (0 = not in this community).
	// It shares SimOK's word, and ordinals are stable across a community's
	// epochs, so cached, carried and restored rankings stay valid.
	ord    int32
	Weight float64 // merged rank weight in [0,1]
}

// NewPeerRank returns the rank of agent a with the given normalized
// trust; similarity and weight are the caller's to set.
func NewPeerRank(a *model.Agent, trust float64) PeerRank {
	return PeerRank{Agent: a.ID, Trust: trust, ord: a.Ord() + 1}
}

// Ord returns the peer's community ordinal, -1 for the zero value.
func (p PeerRank) Ord() int32 { return p.ord - 1 }

// Recommendation is one recommended product with its vote score and the
// number of neighborhood peers that supported it.
type Recommendation struct {
	Product    model.ProductID
	Score      float64
	Supporters int
}

// Recommender ties the pipeline together over one community view.
type Recommender struct {
	comm   *model.Community //nolint:snapshotpin -- constructed per community view; engine.Snapshot owns it and discards it at Swap
	opt    Options
	filter *cf.Filter
	// adj is the community's compiled adjacency — the trust CSR stage 1
	// walks and the ratings CSR stage 4 votes over — shared, like filter,
	// with every WithOptions variant. Each relation compiles on the first
	// cold request that needs it.
	adj  *model.Adjacency
	desc *descriptors // content boost's and diversification's item space, shared like adj
}

// New creates a recommender. Taxonomy-based CF representations and
// ContentBoost require the community to carry a taxonomy.
func New(comm *model.Community, opt Options) (*Recommender, error) {
	opt = opt.WithDefaults()
	if err := opt.validate(comm.Taxonomy()); err != nil {
		return nil, err
	}
	f, err := cf.New(comm, opt.CF)
	if err != nil {
		return nil, err
	}
	return &Recommender{comm: comm, opt: opt, filter: f, adj: comm.Adjacency(), desc: newDescriptors(comm)}, nil
}

// WithOptions derives a recommender over the same community with
// different pipeline options. The compiled adjacency and the product
// descriptor matrix are always shared; unless the CF configuration
// changes what a profile row holds (representation, score constant,
// rating weighting) the derived recommender also shares this one's
// similarity filter — a different measure is a view over the same
// compiled matrix — so serving layers can honor per-request overrides of
// the trust metric, α, similarity measure or content mode without
// compiling anything.
func (r *Recommender) WithOptions(opt Options) (*Recommender, error) {
	opt = opt.WithDefaults()
	shared := r.opt.CF
	shared.Measure = opt.CF.Measure
	if opt.CF == shared {
		if err := opt.validate(r.comm.Taxonomy()); err != nil {
			return nil, err
		}
		return &Recommender{comm: r.comm, opt: opt, filter: r.filter.WithMeasure(opt.CF.Measure), adj: r.adj, desc: r.desc}, nil
	}
	nr, err := New(r.comm, opt)
	if err != nil {
		return nil, err
	}
	nr.adj, nr.desc = r.adj, r.desc
	return nr, nil
}

// Community returns the underlying community view.
func (r *Recommender) Community() *model.Community { return r.comm }

// Adjacency returns the community's compiled adjacency, shared by every
// WithOptions variant.
func (r *Recommender) Adjacency() *model.Adjacency { return r.adj }

// Filter returns the similarity filter (useful for evaluation harnesses).
func (r *Recommender) Filter() *cf.Filter { return r.filter }

// Neighborhood runs stage 1 for the active agent.
func (r *Recommender) Neighborhood(active model.AgentID) (*trust.Neighborhood, error) {
	return r.NeighborhoodCtx(context.Background(), active)
}

// NeighborhoodCtx is Neighborhood with cancellation. The Appleseed metric
// checks ctx at every iteration boundary; the cheaper metrics check it
// once on entry. Returns ctx.Err() when cancelled.
func (r *Recommender) NeighborhoodCtx(ctx context.Context, active model.AgentID) (*trust.Neighborhood, error) {
	return r.neighborhood(ctx, active, nil)
}

// neighborhood is NeighborhoodCtx building the ranks in buf's array when
// the metric can (see trust.Appleseed). The trust floor is part
// of stage 1: of the peers the metric ranked, those whose rank relative
// to the best falls below TrustThreshold are cut here — the ranks come
// sorted, so the cut is a suffix — and later stages (and the ladder's
// hop widening, whose joiners rank below any member by construction)
// take the neighborhood as given.
func (r *Recommender) neighborhood(ctx context.Context, active model.AgentID, buf []trust.Rank) (*trust.Neighborhood, error) {
	nb, err := r.rankTrust(ctx, active, buf)
	if err != nil || len(nb.Ranks) == 0 {
		return nb, err
	}
	best, n := nb.Ranks[0].Trust, len(nb.Ranks)
	for n > 0 && nb.Ranks[n-1].Trust/best < r.opt.TrustThreshold {
		n--
	}
	nb.Ranks = nb.Ranks[:n]
	return nb, nil
}

// rankTrust runs the configured trust metric (or candidate pre-filter)
// and returns its ranking, sorted by descending trust, built in buf's
// array when the metric can.
func (r *Recommender) rankTrust(ctx context.Context, active model.AgentID, buf []trust.Rank) (*trust.Neighborhood, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.opt.Candidates != nil {
		// The hook names its candidates by URI; each is resolved here, once.
		nb := &trust.Neighborhood{Source: active, Ranks: buf[:0]}
		for _, id := range r.opt.Candidates(active) {
			if a := r.comm.Agent(id); a != nil && id != active {
				nb.Ranks = append(nb.Ranks, trust.NewRank(a, 1))
			}
		}
		return nb, nil
	}
	if r.opt.Metric == NoTrust {
		nb := &trust.Neighborhood{Source: active, Ranks: buf[:0]}
		for ord := range int32(r.adj.NumAgents()) {
			if a := r.adj.Agent(ord); a.ID != active {
				nb.Ranks = append(nb.Ranks, trust.NewRank(a, 1))
			}
		}
		return nb, nil
	}
	a := r.comm.Agent(active)
	if a == nil {
		// An agent the community does not know has no row to walk from.
		return &trust.Neighborhood{Source: active}, nil
	}
	switch r.opt.Metric {
	case Advogato:
		return trust.Advogato(r.adj, a.Ord(), r.opt.Advogato)
	case PathTrust:
		return trust.PathTrust(r.adj, a.Ord(), r.opt.PathTrust)
	default:
		return trust.Appleseed(ctx, r.adj, a.Ord(), r.opt.Appleseed, buf)
	}
}

// RankedPeers runs stages 1-3: trust neighborhood, similarity filtering
// and rank synthesization. The result is sorted by descending weight (ties
// by agent ID).
func (r *Recommender) RankedPeers(active model.AgentID) ([]PeerRank, error) {
	return r.RankedPeersCtx(context.Background(), active)
}

// RankedPeersCtx is RankedPeers with cancellation: stage 1 inherits the
// context, and the stage-2 similarity loop — which builds interest
// profiles for cache-cold peers — checks it at per-peer boundaries.
// Returns ctx.Err() when cancelled.
func (r *Recommender) RankedPeersCtx(ctx context.Context, active model.AgentID) ([]PeerRank, error) {
	if !r.comm.HasAgent(active) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAgent, active)
	}
	// The neighborhood lives only until it is synthesized — PeerRanks copy
	// what they keep — so its rank array, a quarter of a cold request's
	// allocation, is recycled whichever metric built it.
	buf, _ := ranksPool.Get().(*[]trust.Rank)
	if buf == nil {
		buf = new([]trust.Rank)
	}
	defer ranksPool.Put(buf)
	nb, err := r.neighborhood(ctx, active, *buf)
	if err != nil {
		return nil, err
	}
	*buf = nb.Ranks[:0]
	return r.SynthesizeCtx(ctx, active, nb)
}

// ranksPool recycles stage-1 rank arrays between RankedPeersCtx calls.
var ranksPool sync.Pool

// SynthesizeCtx runs stages 2-3 — similarity filtering and rank
// synthesization — over an externally supplied trust neighborhood,
// exactly as RankedPeersCtx does over the stage-1 result, and returns the
// MaxNeighbors peers of highest weight in an array of exactly that
// length (the ranking outlives the request in the engine's cache).
// Serving layers that transform the neighborhood before synthesis (the
// strategy ladder's trust-hop widening) use this to keep the downstream
// pipeline identical. Returns ctx.Err() when cancelled.
func (r *Recommender) SynthesizeCtx(ctx context.Context, active model.AgentID, nb *trust.Neighborhood) ([]PeerRank, error) {
	if nb == nil || len(nb.Ranks) == 0 {
		return nil, nil
	}
	maxTrust := nb.Ranks[0].Trust
	for _, rk := range nb.Ranks {
		if rk.Trust > maxTrust {
			maxTrust = rk.Trust
		}
	}
	sc := getSynthScratch(len(nb.Ranks))
	defer synthPool.Put(sc)
	peers := sc.peers[:len(nb.Ranks)]
	for i, rk := range nb.Ranks {
		p := PeerRank{Agent: rk.Agent, ord: rk.Ord() + 1}
		if maxTrust > 0 {
			p.Trust = rk.Trust / maxTrust
		}
		peers[i] = p
	}
	// Stage 2 as one batched scan: the filter computes every peer
	// similarity over the compiled profile matrix, addressed by ordinal,
	// and checks ctx as it goes.
	act := int32(-1)
	if a := r.comm.Agent(active); a != nil {
		act = a.Ord()
	}
	err := sc.similarities(peers, func(ords []int32, sims []cf.SimResult) error {
		return r.filter.Similarities(ctx, act, ords, sims)
	})
	if err != nil {
		return nil, err
	}

	alpha := r.opt.alpha()
	switch r.opt.Merge {
	case BordaCount:
		bordaMerge(peers, alpha)
	default:
		for i := range peers {
			// Negative correlation indicates diverging interests (§3.3):
			// such peers contribute no similarity weight.
			simNorm := peers[i].Sim
			if simNorm < 0 {
				simNorm = 0
			}
			peers[i].Weight = float64(alpha*peers[i].Trust) + float64((1-alpha)*simNorm)
		}
	}
	kept := make([]PeerRank, min(len(peers), r.opt.MaxNeighbors))
	trust.TopPeers(kept, peers, peerWeight, peerAgent)
	return kept, nil
}

// SortPeers sorts peers in the order RankedPeers returns them:
// descending weight, ties by ascending agent ID.
func SortPeers(peers []PeerRank) { trust.SortPeers(peers, peerWeight, peerAgent) }

func peerWeight(p *PeerRank) float64      { return p.Weight }
func peerAgent(p *PeerRank) model.AgentID { return p.Agent }

// synthScratch holds the buffers of one stage 2-3 run: the candidate
// peers before the M highest-weighted are copied out, their ordinals
// going into the similarity scan and the results coming out of it.
type synthScratch struct {
	peers []PeerRank
	ords  []int32
	sims  []cf.SimResult
}

var synthPool sync.Pool

// getSynthScratch returns pooled buffers for n peers; the caller puts
// them back.
func getSynthScratch(n int) *synthScratch {
	sc, ok := synthPool.Get().(*synthScratch)
	if !ok || len(sc.ords) < n {
		sc = &synthScratch{peers: make([]PeerRank, n), ords: make([]int32, n), sims: make([]cf.SimResult, n)}
	}
	return sc
}

// similarities runs a stage-2 scan against peers — scan receives the
// peers' ordinals and fills one result each — and writes every result
// into its peer. A zero-value peer scans as an empty profile.
func (sc *synthScratch) similarities(peers []PeerRank, scan func(ords []int32, sims []cf.SimResult) error) error {
	ords, sims := sc.ords[:len(peers)], sc.sims[:len(peers)]
	for i := range peers {
		ords[i] = peers[i].Ord()
	}
	if err := scan(ords, sims); err != nil {
		return err
	}
	for i := range peers {
		peers[i].Sim, peers[i].SimOK = sims[i].Sim, sims[i].OK
	}
	return nil
}

// AncestorSimilarities re-runs stage 2 at super-topic resolution: every
// peer's Sim/SimOK is overwritten with its similarity to active over
// profiles folded to the given taxonomy depth (cf.Filter's coarse
// matrix), the same scan stage 2 runs over the full-resolution rows.
func (r *Recommender) AncestorSimilarities(ctx context.Context, active model.AgentID, peers []PeerRank, depth int) error {
	act := int32(-1)
	if a := r.comm.Agent(active); a != nil {
		act = a.Ord()
	}
	sc := getSynthScratch(len(peers))
	defer synthPool.Put(sc)
	return sc.similarities(peers, func(ords []int32, sims []cf.SimResult) error {
		return r.filter.AncestorSimilarities(ctx, depth, act, ords, sims)
	})
}

// Recommend runs the full pipeline and returns the top-n recommendations
// for the active agent (all scored products if n <= 0). Products the
// active agent has already rated never appear.
func (r *Recommender) Recommend(active model.AgentID, n int) ([]Recommendation, error) {
	return r.RecommendCtx(context.Background(), active, n)
}

// RecommendCtx is Recommend with cancellation threaded through every
// pipeline stage. Returns ctx.Err() when cancelled.
func (r *Recommender) RecommendCtx(ctx context.Context, active model.AgentID, n int) ([]Recommendation, error) {
	peers, err := r.RankedPeersCtx(ctx, active)
	if err != nil {
		return nil, err
	}
	return r.RecommendFromCtx(ctx, active, peers, n)
}

// RecommendFromCtx runs stage 4 only — the product vote — over an
// already synthesized peer ranking, as produced by RankedPeers. Serving
// layers that cache neighborhoods across requests (internal/engine) use
// this to skip stages 1-3 entirely on a warm cache. The vote checks ctx
// at per-peer boundaries (each peer may contribute an entire rating
// history); returns ctx.Err() when cancelled.
func (r *Recommender) RecommendFromCtx(ctx context.Context, active model.AgentID, peers []PeerRank, n int) ([]Recommendation, error) {
	act := r.comm.Agent(active)
	if act == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAgent, active)
	}

	var touched map[taxonomy.Topic]bool
	if r.opt.Content == NovelCategories {
		touched = TouchedTopics(r.comm, act)
	}

	// The vote runs on pooled scratch: a flat per-product table — votes[ord]
	// holds 0 (unseen), -1 (rated by the active agent), or the accumulator
	// index + 1 — over one accumulator slab. Peers vote through their
	// rating rows, products by ordinal, so the scan hashes nothing.
	vs := getVoteScratch(r.adj.NumProducts())
	defer vs.release()
	// Sentinel entries for the active agent's own history.
	for _, e := range act.RatedProducts() {
		vs.votes[e.Ord] = -1
		vs.rated = append(vs.rated, e.Ord)
	}
	vs.readRows(r.adj, peers)
	if err := r.vote(ctx, vs, peers, touched); err != nil {
		return nil, err
	}
	cands := vs.accs[:vs.n]

	// Content boost: scale each candidate's vote score by its affinity
	// to the active agent's own taxonomy profile (hybrid filtering, §5),
	// gathered into pooled scratch.
	if r.opt.ContentBoost > 0 {
		s := r.desc.get()
		defer r.desc.put(s)
		if err := s.st.ProfileDense(ctx, act, r.comm, s.g); err != nil {
			return nil, err
		}
		active := s.g.Gather()
		s.sc.Load(&active)
		for i := range cands {
			m, _ := affinity(s.sc, r.desc.row(r.adj.Product(cands[i].prod)))
			cands[i].score *= 1 + float64(r.opt.ContentBoost*m)
		}
	}

	// The answer is allocated at its exact size: it outlives the request
	// in the engine's result cache, and must not pin a candidate-sized
	// array behind a ten-item slice.
	k := len(cands)
	if n > 0 && n < k {
		k = n
	}
	out := make([]Recommendation, k)
	selectTop(r.adj, cands, out)
	return out, nil
}

// bordaMerge assigns Borda-position weights in place: peers get
// (n-rank)/n under the trust ordering and under the similarity ordering
// (undefined or negative similarities rank last with score 0), blended
// with α.
func bordaMerge(peers []PeerRank, alpha float64) {
	n := len(peers)
	// borda returns each peer's Borda score in the order of ascending
	// class, then descending value, then agent ID; class 1 scores 0.
	borda := func(key func(p *PeerRank) (class int, value float64)) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int {
			ca, va := key(&peers[a])
			cb, vb := key(&peers[b])
			return cmp.Or(cmp.Compare(ca, cb), cmp.Compare(vb, va), cmp.Compare(peers[a].Agent, peers[b].Agent))
		})
		score := make([]float64, n)
		for rank, i := range idx {
			if c, _ := key(&peers[i]); c == 0 {
				score[i] = float64(n-rank) / float64(n)
			}
		}
		return score
	}
	trustScore := borda(func(p *PeerRank) (int, float64) { return 0, p.Trust })
	simScore := borda(func(p *PeerRank) (int, float64) {
		if p.SimOK && p.Sim >= 0 {
			return 0, p.Sim
		}
		return 1, p.Sim
	})
	for i := range peers {
		peers[i].Weight = float64(alpha*trustScore[i]) + float64((1-alpha)*simScore[i])
	}
}

// TouchedTopics collects every topic, with its ancestors but not the
// root, that agent a's positive ratings of cataloged products reach — the
// categories NOT "left untouched until now" (§3.4). Without a taxonomy a
// descriptor is an opaque label and the set is empty; each caller decides
// what that means (the NovelCategories vote takes every labelled product
// as novel, the popularity rung partitions nothing).
func TouchedTopics(comm *model.Community, a *model.Agent) map[taxonomy.Topic]bool {
	touched := make(map[taxonomy.Topic]bool)
	tax := comm.Taxonomy()
	if tax == nil {
		return touched
	}
	sym := comm.Symbols()
	for _, e := range a.PositiveRatings() {
		for _, d := range sym.ProductAt(e.Ord).Topics {
			touched[d] = true
			for _, anc := range tax.Ancestors(d) {
				touched[anc] = true
			}
		}
	}
	delete(touched, taxonomy.Root) // the top element covers everything
	return touched
}

// IsNovel reports whether p is a product with descriptors, every one of
// them outside touched.
func IsNovel(p *model.Product, touched map[taxonomy.Topic]bool) bool {
	if p == nil || len(p.Topics) == 0 {
		return false
	}
	for _, d := range p.Topics {
		if touched[d] {
			return false
		}
	}
	return true
}
