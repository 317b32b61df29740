// Package datagen synthesizes the experimental infrastructure of §4.1.
// The paper mined All Consuming and Advogato for "approximately 9,100
// users, their trust relationships and implicit product ratings",
// "categorization data about 9,953 books", and captured "Amazon's huge
// book taxonomy" (>20,000 topics, deep and fine-grained; the DVD variant
// has more topics but is less deep, §6). Those crawls are not available,
// so this package generates communities with the same structural
// properties (see DESIGN.md, substitutions):
//
//   - a procedurally generated taxonomy with controllable depth and
//     branching, calibrated so the book preset exceeds 20,000 topics;
//   - interest clusters that drive BOTH the trust graph and the rating
//     behavior, making trust and profile similarity correlate — the
//     empirically observed property ([5], §3.2) the whole approach
//     leans on. ClusterFidelity tunes the correlation strength, which
//     experiment E2 sweeps;
//   - a preferential-attachment trust graph (scale-free in-degree, as
//     observed on Advogato);
//   - rating histories with skewed (geometric) lengths, as weblog-mined
//     implicit votes have;
//   - sybil attack injection for the manipulation experiment E4.
//
// Everything is deterministic given Config.Seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"swrec/internal/isbn"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

// TaxonomyConfig shapes the generated taxonomy.
type TaxonomyConfig struct {
	// Depth is the maximum primary-path length below the root.
	Depth int
	// Branching is the mean number of children of an inner topic.
	Branching int
	// Levels, when non-empty, overrides Depth/Branching with an explicit
	// per-level branching factor: Levels[0] children under the root,
	// Levels[1] under each of those, and so on. Experiment E8 uses it to
	// compare taxonomies of equal leaf count but different depth.
	Levels []int
	// Jitter in [0,1) randomizes per-node child counts by ±Jitter·Branching.
	Jitter float64
	// MaxTopics stops growth once reached (0 = unlimited).
	MaxTopics int
	// Root names the top element.
	Root string
}

// Config parameterizes community generation.
type Config struct {
	Seed     int64
	Agents   int
	Products int
	Taxonomy TaxonomyConfig
	// Clusters is the number of interest clusters.
	Clusters int
	// MeanRatings is the mean rating-history length (geometric).
	MeanRatings int
	// MeanTrust is the mean trust out-degree (geometric, preferential
	// attachment targets).
	MeanTrust int
	// ClusterFidelity in [0,1]: probability that a rating or trust edge
	// stays within the agent's own cluster.
	ClusterFidelity float64
	// DistrustFraction of trust edges carry negative values.
	DistrustFraction float64
	// DescriptorsPerProduct is the mean |f(b)| (≥1).
	DescriptorsPerProduct int
	// PopularitySkew s ≥ 0 makes product choice Zipf-like: within a pool,
	// the product at popularity rank r is drawn with weight 1/(r+1)^s.
	// 0 (default) keeps the uniform choice; weblog-mined corpora like All
	// Consuming show s ≈ 1 (a few books dominate the mentions).
	PopularitySkew float64
	// BaseHost forms agent IDs "http://<BaseHost>/people/a<i>" so the
	// community is directly publishable via semweb.
	BaseHost string
}

// BookTaxonomy is the preset matching Amazon's book taxonomy shape:
// deeply nested, >20,000 topics (uniform branching 4 to depth 7 yields
// (4^8-1)/3 = 21,845 topics).
func BookTaxonomy() TaxonomyConfig {
	return TaxonomyConfig{Depth: 7, Branching: 4, Root: "Books"}
}

// DVDTaxonomy is the §6 contrast preset: "more topics than its book
// counterpart, though being less deep" — branching 12 to depth 4 yields
// (12^5-1)/11 = 22,621 topics.
func DVDTaxonomy() TaxonomyConfig {
	return TaxonomyConfig{Depth: 4, Branching: 12, Root: "DVD"}
}

// UNSPSCTaxonomy mirrors the "United Nations Standard Products and
// Services Code" §4 points to as the standardization effort: a fixed
// four-level scheme (segment / family / class / commodity) that
// "provides much less information and nesting than, for instance,
// Amazon's taxonomy for books". 55 segments with modest fan-out below,
// ≈21k codes like the real UNSPSC, but only 4 levels deep.
func UNSPSCTaxonomy() TaxonomyConfig {
	return TaxonomyConfig{Levels: []int{55, 8, 6, 8}, Root: "UNSPSC"}
}

// PaperScale reproduces the §4.1 corpus dimensions: ≈9,100 agents, 9,953
// books, the >20k-topic book taxonomy.
func PaperScale() Config {
	return Config{
		Seed:                  1,
		Agents:                9100,
		Products:              9953,
		Taxonomy:              BookTaxonomy(),
		Clusters:              24,
		MeanRatings:           12,
		MeanTrust:             8,
		ClusterFidelity:       0.8,
		DistrustFraction:      0.05,
		DescriptorsPerProduct: 3,
		BaseHost:              "swrec.example",
	}
}

// SmallScale is a fast variant for tests and examples (same structure,
// two orders of magnitude smaller).
func SmallScale() Config {
	c := PaperScale()
	c.Agents = 200
	c.Products = 300
	c.Taxonomy = TaxonomyConfig{Depth: 4, Branching: 4, Root: "Books"}
	c.Clusters = 6
	c.MeanRatings = 8
	c.MeanTrust = 5
	return c
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Agents == 0 {
		c.Agents = 100
	}
	if c.Products == 0 {
		c.Products = 100
	}
	if c.Taxonomy.Depth == 0 && len(c.Taxonomy.Levels) == 0 {
		c.Taxonomy = TaxonomyConfig{Depth: 4, Branching: 4, Root: "Books"}
	}
	if c.Taxonomy.Root == "" {
		c.Taxonomy.Root = "Books"
	}
	if c.Clusters == 0 {
		c.Clusters = 4
	}
	if c.MeanRatings == 0 {
		c.MeanRatings = 8
	}
	if c.MeanTrust == 0 {
		c.MeanTrust = 5
	}
	if c.DescriptorsPerProduct == 0 {
		c.DescriptorsPerProduct = 2
	}
	if c.BaseHost == "" {
		c.BaseHost = "swrec.example"
	}
	return c
}

// Meta carries the generation ground truth the evaluation harness needs.
type Meta struct {
	// AgentCluster maps each agent to its interest cluster.
	AgentCluster map[model.AgentID]int
	// ProductCluster maps each product to the cluster whose topics
	// dominated its descriptors.
	ProductCluster map[model.ProductID]int
	// Config is the (defaulted) configuration used.
	Config Config
}

// GenerateTaxonomy builds a taxonomy per the config, deterministic in rng.
func GenerateTaxonomy(cfg TaxonomyConfig, rng *rand.Rand) *taxonomy.Taxonomy {
	if cfg.Root == "" {
		cfg.Root = "Books"
	}
	tax := taxonomy.New(cfg.Root)
	type frame struct {
		d     taxonomy.Topic
		depth int
	}
	depth := cfg.Depth
	if len(cfg.Levels) > 0 {
		depth = len(cfg.Levels)
	}
	queue := []frame{{taxonomy.Root, 0}}
	n := 0
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if f.depth >= depth {
			continue
		}
		kids := cfg.Branching
		if len(cfg.Levels) > 0 {
			kids = cfg.Levels[f.depth]
		}
		if cfg.Jitter > 0 {
			span := int(cfg.Jitter * float64(cfg.Branching))
			if span > 0 {
				kids += rng.Intn(2*span+1) - span
			}
			if kids < 1 {
				kids = 1
			}
		}
		for i := 0; i < kids; i++ {
			if cfg.MaxTopics > 0 && tax.Len() >= cfg.MaxTopics {
				return tax
			}
			child := tax.MustAdd(f.d, fmt.Sprintf("T%d-%d", n, i))
			queue = append(queue, frame{child, f.depth + 1})
		}
		n++
	}
	return tax
}

// Generate builds a community and its ground-truth metadata.
func Generate(cfg Config) (*model.Community, *Meta) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	tax := GenerateTaxonomy(cfg.Taxonomy, rng)
	comm := model.NewCommunity(tax)
	meta := &Meta{
		AgentCluster:   make(map[model.AgentID]int, cfg.Agents),
		ProductCluster: make(map[model.ProductID]int, cfg.Products),
		Config:         cfg,
	}

	// Interest clusters: each cluster anchors at a distinct depth-1
	// subtree set (wrapping if clusters outnumber subtrees); leaves are
	// sampled from the anchored subtrees.
	top := tax.Children(taxonomy.Root)
	clusterLeaves := make([][]taxonomy.Topic, cfg.Clusters)
	allLeaves := tax.Leaves()
	for k := 0; k < cfg.Clusters; k++ {
		anchor := top[k%len(top)]
		var leaves []taxonomy.Topic
		for _, l := range allLeaves {
			if tax.PrimaryPath(l)[1] == anchor {
				leaves = append(leaves, l)
			}
		}
		if len(leaves) == 0 {
			leaves = allLeaves
		}
		clusterLeaves[k] = leaves
	}

	// Products: assigned to a home cluster; descriptors drawn mostly from
	// the home cluster's leaves.
	productIDs := make([]model.ProductID, cfg.Products)
	productsByCluster := make([][]model.ProductID, cfg.Clusters)
	for i := 0; i < cfg.Products; i++ {
		k := rng.Intn(cfg.Clusters)
		nDesc := 1 + rng.Intn(2*cfg.DescriptorsPerProduct-1)
		topicSet := map[taxonomy.Topic]bool{}
		for j := 0; j < nDesc; j++ {
			pool := clusterLeaves[k]
			if rng.Float64() > 0.8 { // some cross-cluster descriptors
				pool = allLeaves
			}
			topicSet[pool[rng.Intn(len(pool))]] = true
		}
		topics := make([]taxonomy.Topic, 0, len(topicSet))
		for d := range topicSet {
			topics = append(topics, d)
		}
		sortTopics(topics)
		code := isbn.Synthesize(i)
		id := model.ProductID(isbn.URN(code))
		comm.AddProduct(model.Product{
			ID:     id,
			Title:  fmt.Sprintf("Book #%d", i),
			ISBN:   code,
			Topics: topics,
		})
		productIDs[i] = id
		productsByCluster[k] = append(productsByCluster[k], id)
		meta.ProductCluster[id] = k
	}

	// Agents: cluster assignment round-robin with random offset keeps
	// cluster sizes balanced.
	agents := make([]model.AgentID, cfg.Agents)
	agentsByCluster := make([][]int, cfg.Clusters)
	for i := 0; i < cfg.Agents; i++ {
		id := model.AgentID(fmt.Sprintf("http://%s/people/a%d", cfg.BaseHost, i))
		agents[i] = id
		a := comm.AddAgent(id)
		a.Name = fmt.Sprintf("Agent %d", i)
		k := i % cfg.Clusters
		meta.AgentCluster[id] = k
		agentsByCluster[k] = append(agentsByCluster[k], i)
	}

	// Ratings: geometric history length, products mostly from the own
	// cluster. Values skew positive (implicit weblog votes), with some
	// explicit dislikes. With PopularitySkew set, low-indexed products in
	// each pool act as the "popular" ones (Zipf rank weights).
	zipf := newZipfPicker(cfg.PopularitySkew)
	for i, id := range agents {
		k := meta.AgentCluster[id]
		n := geometric(rng, cfg.MeanRatings)
		for j := 0; j < n; j++ {
			pool := productIDs
			if rng.Float64() < cfg.ClusterFidelity && len(productsByCluster[k]) > 0 {
				pool = productsByCluster[k]
			}
			p := pool[zipf.pick(rng, len(pool))]
			v := 0.3 + float64(0.7*rng.Float64()) // like
			if rng.Float64() < 0.1 {
				v = -(0.3 + float64(0.7*rng.Float64())) // dislike
			}
			// SetRating cannot fail here: products exist, values bounded.
			if err := comm.SetRating(id, p, v); err != nil {
				panic(err)
			}
		}
		_ = i
	}

	// Trust graph: preferential attachment — targets sampled
	// proportionally to indegree+1, mostly within the cluster. Weights
	// live in Fenwick trees (one global, one per cluster), so each draw
	// and each in-degree bump costs O(log n) instead of the linear pool
	// scan that dominated generation beyond ~10^4 agents. The trees
	// reproduce the scan's selection exactly (first index whose
	// cumulative weight exceeds the draw), so communities are
	// bit-identical to the pre-tree generator for every seed.
	posInCluster := make([]int, cfg.Agents)
	clusterTrees := make([]*fenwick, cfg.Clusters)
	for k, idxs := range agentsByCluster {
		clusterTrees[k] = newFenwick(len(idxs))
		for local, idx := range idxs {
			posInCluster[idx] = local
			clusterTrees[k].Add(local, 1)
		}
	}
	allTree := newFenwick(cfg.Agents)
	for i := 0; i < cfg.Agents; i++ {
		allTree.Add(i, 1)
	}
	bump := func(t int) { // indeg[t]++, in both trees
		allTree.Add(t, 1)
		clusterTrees[t%cfg.Clusters].Add(posInCluster[t], 1)
	}
	for i, id := range agents {
		k := meta.AgentCluster[id]
		n := geometric(rng, cfg.MeanTrust)
		for j := 0; j < n; j++ {
			var t int
			if rng.Float64() < cfg.ClusterFidelity && len(agentsByCluster[k]) > 1 {
				tree := clusterTrees[k]
				t = agentsByCluster[k][tree.FindPrefix(rng.Intn(tree.Total()))]
			} else {
				t = allTree.FindPrefix(rng.Intn(allTree.Total()))
			}
			if t == i {
				continue
			}
			v := 0.4 + float64(0.6*rng.Float64())
			if rng.Float64() < cfg.DistrustFraction {
				v = -(0.2 + float64(0.8*rng.Float64()))
			}
			if err := comm.SetTrust(id, agents[t], v); err != nil {
				panic(err)
			}
			if v > 0 {
				bump(t)
			}
		}
	}
	return comm, meta
}

// fenwick is a binary-indexed tree over non-negative integer weights:
// O(log n) point updates and O(log n) inverse-CDF search. It backs the
// preferential-attachment sampler at scale.
type fenwick struct {
	tree  []int // 1-based partial sums
	total int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

// Total is the sum of all weights.
func (f *fenwick) Total() int { return f.total }

// Add increases the weight at 0-based index i by w.
func (f *fenwick) Add(i, w int) {
	f.total += w
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += w
	}
}

// FindPrefix returns the smallest 0-based index i whose cumulative
// weight sum(0..i) exceeds r — the element a linear `r -= w[i]; if r<0
// return i` scan selects. r must be in [0, Total()).
func (f *fenwick) FindPrefix(r int) int {
	i := 0
	mask := 1
	for mask<<1 < len(f.tree) {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		if next := i + mask; next < len(f.tree) && f.tree[next] <= r {
			i = next
			r -= f.tree[i]
		}
	}
	return i
}

// zipfPicker draws pool indices with Zipf rank weights 1/(r+1)^s,
// caching cumulative weight tables per pool size.
type zipfPicker struct {
	s      float64
	tables map[int][]float64 // size -> cumulative weights
}

func newZipfPicker(s float64) *zipfPicker {
	return &zipfPicker{s: s, tables: map[int][]float64{}}
}

// pick returns an index in [0, n).
func (z *zipfPicker) pick(rng *rand.Rand, n int) int {
	if z.s <= 0 || n <= 1 {
		return rng.Intn(n)
	}
	cum, ok := z.tables[n]
	if !ok {
		cum = make([]float64, n)
		total := 0.0
		for r := 0; r < n; r++ {
			total += math.Pow(float64(r+1), -z.s)
			cum[r] = total
		}
		z.tables[n] = cum
	}
	x := rng.Float64() * cum[n-1]
	// Binary search for the first cumulative weight ≥ x.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// geometric samples a geometric-ish count with the given mean (≥1).
func geometric(rng *rand.Rand, mean int) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / float64(mean)
	n := 1
	for rng.Float64() > p && n < mean*10 {
		n++
	}
	return n
}

// sortTopics orders topics ascending (insertion sort; descriptor sets are
// tiny).
func sortTopics(ts []taxonomy.Topic) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// InjectSybils adds count attacker agents that clone the victim's rating
// profile and additionally push pushProduct with a maximal rating — the
// §3.2 manipulation scenario ("malicious agents a_j can accomplish high
// similarity with a_i by simply copying its profile"). The sybils certify
// each other in a ring but receive no trust from the honest community.
// The sybil agent IDs are returned.
func InjectSybils(comm *model.Community, victim model.AgentID, count int, pushProduct model.ProductID) []model.AgentID {
	v := comm.Agent(victim)
	if v == nil || count <= 0 {
		return nil
	}
	if comm.Product(pushProduct) == nil {
		comm.AddProduct(model.Product{ID: pushProduct, Title: "pushed product"})
	}
	ids := make([]model.AgentID, count)
	for i := range ids {
		ids[i] = model.AgentID(fmt.Sprintf("http://sybil.example/people/s%d", i))
		comm.AddAgent(ids[i]).Name = fmt.Sprintf("Sybil %d", i)
		copyRatings(comm, ids[i], v)
		if err := comm.SetRating(ids[i], pushProduct, 1); err != nil {
			panic(err)
		}
	}
	for i := range ids {
		if err := comm.SetTrust(ids[i], ids[(i+1)%count], 1); err != nil && count > 1 {
			panic(err)
		}
	}
	return ids
}

// copyRatings states every rating of from as agent id's.
func copyRatings(comm *model.Community, id model.AgentID, from *model.Agent) {
	for _, e := range from.RatedProducts() {
		if err := comm.SetRating(id, comm.Products()[e.Ord], e.Val); err != nil {
			panic(err)
		}
	}
}

// InjectColdStart adds one agent with no ratings and no trust statements —
// the §2 cold-start newcomer every personalization stage is blind to. The
// strategy ladder answers such agents on the popularity rung. Deterministic:
// no randomness, fixed agent ID.
func InjectColdStart(comm *model.Community) model.AgentID {
	id := model.AgentID("http://fixture.example/people/cold-start")
	a := comm.AddAgent(id)
	a.Name = "Cold Start"
	return id
}

// InjectThinTrust adds an agent whose single positive trust statement
// points at a fresh sink buddy (no outgoing trust), so every trust metric
// yields a one-peer neighborhood — below any sane thinness threshold —
// while the agent itself still has a rating history. The buddy clones
// donor's ratings so it can contribute votes. The strategy ladder answers
// such agents on the trust-hop-widening rung. Returns (agent, buddy).
func InjectThinTrust(comm *model.Community, donor model.AgentID) (model.AgentID, model.AgentID) {
	d := comm.Agent(donor)
	if d == nil {
		return "", ""
	}
	buddy := model.AgentID("http://fixture.example/people/thin-buddy")
	comm.AddAgent(buddy).Name = "Thin Buddy"
	copyRatings(comm, buddy, d)
	id := model.AgentID("http://fixture.example/people/thin-trust")
	comm.AddAgent(id).Name = "Thin Trust"
	// One shared rating keeps the agent's profile defined so only the
	// neighborhood — not the similarity measure — is starved.
	if pos := d.PositiveRatings(); len(pos) > 0 {
		if err := comm.SetRating(id, comm.Products()[pos[0].Ord], pos[0].Val); err != nil {
			panic(err)
		}
	}
	// The buddy likes a few products the agent has not rated, so its vote
	// always has something to recommend.
	extra := 0
	for _, pid := range comm.Products() {
		if extra >= 3 {
			break
		}
		if _, rated := comm.Rating(id, pid); rated {
			continue
		}
		if err := comm.SetRating(buddy, pid, 1); err != nil {
			panic(err)
		}
		extra++
	}
	if err := comm.SetTrust(id, buddy, 1); err != nil {
		panic(err)
	}
	return id, buddy
}

// InjectDisjointProfile grows a fresh depth-1 branch of the taxonomy with
// nLeaves leaf topics, mints one product per leaf, and adds an agent that
// positively rates all of them while trusting the given peers — §2's "low
// profile overlap" pathology made literal: the agent's interest mass lives
// in a subtree nobody else touches, so fine-grained similarity with every
// peer is near zero even though its trust neighborhood is healthy. The
// strategy ladder answers such agents on the taxonomy-ancestor rung. Must
// run before the community is handed to an engine (it mutates the
// taxonomy). Deterministic: no randomness, fixed IDs.
func InjectDisjointProfile(comm *model.Community, peers []model.AgentID, nLeaves int) model.AgentID {
	tax := comm.Taxonomy()
	if tax == nil || nLeaves < 1 {
		return ""
	}
	branch := tax.MustAdd(taxonomy.Root, "Fixture Obscura")
	id := model.AgentID("http://fixture.example/people/disjoint")
	a := comm.AddAgent(id)
	a.Name = "Disjoint Profile"
	for i := 0; i < nLeaves; i++ {
		genus := tax.MustAdd(branch, fmt.Sprintf("Genus %d", i))
		leaf := tax.MustAdd(genus, fmt.Sprintf("Species %d", i))
		pid := model.ProductID(fmt.Sprintf("urn:fixture:obscura-%d", i))
		comm.AddProduct(model.Product{
			ID:     pid,
			Title:  fmt.Sprintf("Obscura #%d", i),
			Topics: []taxonomy.Topic{leaf},
		})
		if err := comm.SetRating(id, pid, 1); err != nil {
			panic(err)
		}
	}
	for _, p := range peers {
		if comm.Agent(p) == nil {
			continue
		}
		if err := comm.SetTrust(id, p, 1); err != nil {
			panic(err)
		}
	}
	return id
}
