// Package swrec is a decentralized, trust-aware recommender system for the
// Semantic Web — a reproduction of Cai-Nicolas Ziegler, "Semantic Web
// Recommender Systems", EDBT 2004 (PhD Workshop).
//
// The system combines two pillars:
//
//   - Trust networks (§3.2): agents publish partial trust functions in
//     machine-readable homepages; the Appleseed local group trust metric
//     (spreading activation) computes a subjective, continuous-valued
//     trust neighborhood per agent over a bounded expansion range,
//     providing both manipulation resistance and scalable candidate
//     pre-filtering. Levien's Advogato
//     (boolean, max-flow) and a scalar path metric are built in as
//     baselines.
//   - Taxonomy-driven interest profiles (§3.3): product ratings are
//     mapped onto a large product taxonomy (e.g. Amazon's >20,000-topic
//     book taxonomy) and propagated to super-topics with
//     sibling-attenuated scores (Eq. 3), so profile similarity (Pearson
//     or cosine) is meaningful even for users who share not a single
//     rated product.
//
// Rank synthesization (§3.4) merges trust and similarity ranks into one
// rank weight per peer, and the M peers of highest weight vote for their
// appreciated products with that weight. The bounds are part of the
// algorithm: zero AppleseedOptions.MaxNodes, Options.MaxNeighbors and
// Options.TrustThreshold resolve to the defaults EXPERIMENTS.md E12
// chose, and a caller that wants the whole community in range says so
// with bounds at least its size.
//
// # Quick start
//
//	comm, _ := swrec.GenerateCommunity(swrec.SmallDataset())
//	rec, err := swrec.NewRecommender(comm, swrec.Options{})
//	if err != nil { ... }
//	recs, err := rec.Recommend(comm.Agents()[0], 10)
//
// The package also ships the full decentralized loop: publish a community
// as FOAF/RDF homepages over HTTP (PublishSite), crawl it back into a
// local materialized view (Crawl), and recommend from the crawled data —
// see examples/decentralized.
//
// This root package is a thin facade; the subsystems live in internal/
// packages (see DESIGN.md for the full inventory).
package swrec

import (
	"context"
	"net/http"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/corpus"
	"swrec/internal/crawler"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/foaf"
	"swrec/internal/index"
	"swrec/internal/model"
	"swrec/internal/rdf"
	"swrec/internal/semweb"
	"swrec/internal/stereotype"
	"swrec/internal/store"
	"swrec/internal/taxonomy"
	"swrec/internal/trust"
	"swrec/internal/weblog"
)

// Core model types (§3.1 information model).
type (
	// AgentID is an agent's globally unique URI.
	AgentID = model.AgentID
	// ProductID is a product's globally unique identifier (e.g. an ISBN
	// URN).
	ProductID = model.ProductID
	// Product is one catalog entry with its topic descriptors f(b).
	Product = model.Product
	// Agent is one materialized agent: partial trust and rating functions.
	Agent = model.Agent
	// Community is the locally materialized view of the distributed model.
	Community = model.Community
	// TrustStatement is one trust edge.
	TrustStatement = model.TrustStatement
	// RatingStatement is one product rating.
	RatingStatement = model.RatingStatement
	// Taxonomy is the product classification scheme C.
	Taxonomy = taxonomy.Taxonomy
	// Topic is a handle into a Taxonomy.
	Topic = taxonomy.Topic
)

// Recommendation pipeline types.
type (
	// Options configure the recommendation pipeline (trust metric, CF
	// strategy, rank synthesization blend).
	Options = core.Options
	// CFOptions configure the similarity-based filtering stage.
	CFOptions = cf.Options
	// Recommendation is one recommended product.
	Recommendation = core.Recommendation
	// PeerRank is one peer after rank synthesization.
	PeerRank = core.PeerRank
	// Neighborhood is a computed trust neighborhood.
	Neighborhood = trust.Neighborhood
	// AppleseedOptions parameterize the Appleseed trust metric.
	AppleseedOptions = trust.AppleseedOptions
	// AdvogatoOptions parameterize the Advogato baseline metric.
	AdvogatoOptions = trust.AdvogatoOptions
)

// Trust metric selectors for Options.Metric.
const (
	// MetricAppleseed selects the paper's spreading-activation metric.
	MetricAppleseed = core.Appleseed
	// MetricAdvogato selects the boolean max-flow baseline.
	MetricAdvogato = core.Advogato
	// MetricPathTrust selects the scalar path-multiplication baseline.
	MetricPathTrust = core.PathTrust
	// MetricNone disables trust filtering (pure centralized CF).
	MetricNone = core.NoTrust
)

// Similarity measure selectors for CFOptions.Measure.
const (
	// MeasurePearson is Pearson's correlation coefficient.
	MeasurePearson = cf.Pearson
	// MeasureCosine is the cosine similarity.
	MeasureCosine = cf.Cosine
)

// Profile representation selectors for CFOptions.Representation.
const (
	// ReprTaxonomy uses Eq. 3 taxonomy profiles (the paper's proposal).
	ReprTaxonomy = cf.Taxonomy
	// ReprFlatCategory uses flat category vectors (baseline [14]).
	ReprFlatCategory = cf.FlatCategory
	// ReprProduct uses plain product-rating vectors (classic CF).
	ReprProduct = cf.Product
)

// Content mode selectors for Options.Content.
const (
	// ContentStandard votes over all unseen products.
	ContentStandard = core.Standard
	// ContentNovelCategories restricts to untouched taxonomy branches.
	ContentNovelCategories = core.NovelCategories
)

// Rank merge selectors for Options.Merge (§3.4 synthesization
// alternatives).
const (
	// MergeScoreBlend blends normalized trust and similarity values
	// (default; the empirically stronger scheme, see EXPERIMENTS.md E7).
	MergeScoreBlend = core.ScoreBlend
	// MergeBorda blends rank positions instead of values.
	MergeBorda = core.BordaCount
)

// Recommender is the assembled pipeline over one community view.
type Recommender = core.Recommender

// NewRecommender builds the full pipeline; the zero Options give the
// paper's default configuration (Appleseed over a bounded range +
// taxonomy-Pearson + α=0.5 over the M closest peers).
func NewRecommender(c *Community, opt Options) (*Recommender, error) {
	return core.New(c, opt)
}

// Engine is the persistent, concurrency-safe serving engine behind the
// HTTP API: one immutable community snapshot plus shared caches for
// taxonomy profiles, trust neighborhoods, and recommendation results,
// with an atomic Swap for publishing crawled updates (see
// internal/engine).
type Engine = engine.Engine

// EngineConfig sizes the engine's per-snapshot caches; the zero value
// selects defaults.
type EngineConfig = engine.Config

// NewEngine builds a serving engine over a community view. Long-running
// servers should prefer this over NewRecommender: repeated queries for
// the same agent are answered from caches, and Warmup precomputes every
// agent's hot state in parallel.
func NewEngine(c *Community, opt Options, cfg EngineConfig) (*Engine, error) {
	return engine.New(c, opt, cfg)
}

// NewCommunity creates an empty community over a taxonomy (which may be
// nil for pure trust-network use).
func NewCommunity(tax *Taxonomy) *Community { return model.NewCommunity(tax) }

// NewTaxonomy creates a taxonomy holding only the top element ⊤.
func NewTaxonomy(root string) *Taxonomy { return taxonomy.New(root) }

// Fig1Taxonomy reconstructs the paper's Figure 1 fragment of the Amazon
// book taxonomy (used by Example 1).
func Fig1Taxonomy() *Taxonomy { return taxonomy.Fig1() }

// Dataset generation (the §4.1 experimental infrastructure).
type (
	// DatasetConfig parameterizes synthetic community generation.
	DatasetConfig = datagen.Config
	// DatasetMeta carries generation ground truth (cluster assignments).
	DatasetMeta = datagen.Meta
)

// PaperDataset returns the configuration matching the paper's corpus:
// ≈9,100 agents, 9,953 books, a >20,000-topic book taxonomy.
func PaperDataset() DatasetConfig { return datagen.PaperScale() }

// SmallDataset returns a two-orders-of-magnitude smaller configuration
// for tests, examples, and quick experiments.
func SmallDataset() DatasetConfig { return datagen.SmallScale() }

// GenerateCommunity synthesizes a community (deterministic in cfg.Seed).
func GenerateCommunity(cfg DatasetConfig) (*Community, *DatasetMeta) {
	return datagen.Generate(cfg)
}

// InjectSybils adds profile-cloning attacker agents pushing a product —
// the §3.2 manipulation scenario used by experiment E4.
func InjectSybils(c *Community, victim AgentID, count int, push ProductID) []AgentID {
	return datagen.InjectSybils(c, victim, count, push)
}

// Decentralized deployment (§4): publishing and crawling.
type (
	// Site publishes a community as FOAF/RDF documents over HTTP.
	Site = semweb.Site
	// Internet is a virtual in-process network of sites.
	Internet = semweb.Internet
	// Crawler materializes a community from published homepages.
	Crawler = crawler.Crawler
	// CrawlResult is a materialized community plus crawl statistics.
	CrawlResult = crawler.Result
	// DocumentStore is the crawler's persistent document cache.
	DocumentStore = store.Store
	// Homepage is the logical content of one agent homepage document.
	Homepage = foaf.Homepage
)

// PublishSite wraps a community as an http.Handler serving per-agent
// homepages (/people/<name>), the catalog (/catalog.nt), and the taxonomy
// (/taxonomy.nt) under the given virtual host.
func PublishSite(host string, c *Community) *Site { return semweb.NewSite(host, c) }

// OpenDocumentStore opens (creating if needed) a crawler cache at path.
func OpenDocumentStore(path string) (*DocumentStore, error) {
	return store.Open(path, store.Options{})
}

// Crawl fetches the global taxonomy and catalog documents and BFS-crawls
// agent homepages from the seeds using the given client (pass
// (&Internet{}).Client() for a virtual web, or nil for the real one).
func Crawl(ctx context.Context, client *http.Client, taxonomyURL, catalogURL string, seeds []AgentID) (*CrawlResult, error) {
	c := &Crawler{Client: client}
	return c.Crawl(ctx, taxonomyURL, catalogURL, seeds)
}

// ExportCorpus writes the community to dir as a tree of Semantic Web
// documents (taxonomy.nt, catalog.nt, people/*.nt + MANIFEST).
func ExportCorpus(c *Community, dir string) error { return corpus.Export(c, dir) }

// ImportCorpus loads a corpus directory written by ExportCorpus.
func ImportCorpus(dir string) (*Community, error) { return corpus.Import(dir) }

// Stereotype learning (§6 "automated stereotype generation and efficient
// behavior modelling", implemented as an extension).
type (
	// StereotypeModel is a learned set of prototypical interest profiles.
	StereotypeModel = stereotype.Model
	// StereotypeOptions parameterize stereotype learning.
	StereotypeOptions = stereotype.Options
)

// StereotypeProfiles resolves agents of c to the Eq. 3 taxonomy profiles
// LearnStereotypes clusters: rows of c's profile matrix, compiled once by
// this call — the rows StereotypeModel.Classify takes.
func StereotypeProfiles(c *Community) stereotype.ProfileFunc { return stereotype.Profiles(c) }

// LearnStereotypes clusters the community's taxonomy profiles into
// opt.K stereotypes (spherical k-means over profile-matrix rows; a given
// opt.Seed gives the same centroids, bit for bit, on every call).
func LearnStereotypes(c *Community, opt StereotypeOptions) (*StereotypeModel, error) {
	return stereotype.Learn(c.Agents(), stereotype.Profiles(c), opt)
}

// TopicIndex answers browse-by-branch queries over the catalog (the
// inverse of the descriptor assignment f).
type TopicIndex = index.TopicIndex

// BuildTopicIndex indexes the community's catalog by taxonomy topic.
func BuildTopicIndex(c *Community) *TopicIndex { return index.Build(c) }

// RenderWeblog renders an agent's human-readable weblog page: posts
// whose hyperlinks to catalog product pages carry the implicit votes §4
// describes. The agent must exist in the community.
func RenderWeblog(c *Community, id AgentID) string {
	a := c.Agent(id)
	if a == nil {
		return ""
	}
	return weblog.Render(a, c)
}

// MineWeblog fetches a weblog page over HTTP, attributes it via its
// advertised FOAF homepage, and returns the implicit product votes mined
// from its hyperlinks (§4's All Consuming-style mining).
func MineWeblog(ctx context.Context, client *http.Client, url string) (AgentID, []RatingStatement, error) {
	return weblog.Fetch(ctx, client, url)
}

// MarshalHomepage renders an agent's homepage as an N-Triples document.
// The agent must exist in the community.
func MarshalHomepage(c *Community, id AgentID) string {
	return foaf.MarshalAgent(c, c.Agent(id)).Marshal()
}

// ParseHomepage parses an N-Triples homepage document.
func ParseHomepage(doc string) (Homepage, error) {
	g, err := rdf.ParseString(doc)
	if err != nil {
		return Homepage{}, err
	}
	return foaf.Unmarshal(g)
}
