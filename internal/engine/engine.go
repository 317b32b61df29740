// Package engine is the persistent serving core behind the HTTP API: one
// shared, concurrency-safe recommendation engine instead of a pipeline
// rebuilt per request.
//
// The paper's §4 deployment is an installation that continuously crawls
// the Semantic Web and serves its own users from the materialized view.
// Serving and crawling meet here through snapshot isolation: the engine
// owns one immutable Snapshot — community, recommender, caches — behind
// an atomic pointer. Requests pin the snapshot once and read only from
// it; a background crawler publishes an updated community with Swap,
// which installs a fresh snapshot (new epoch, empty caches) atomically
// while in-flight requests finish against the old one.
//
// Within a snapshot the engine amortizes the expensive per-agent state
// across requests:
//
//   - every agent's interest profile (Eq. 3) is one row of the snapshot's
//     compiled profile matrix (cf.Filter, internal/profmat) — the only
//     stored copy: similarities, the taxonomy-ancestor rung and the
//     /profile endpoint all read it;
//   - synthesized trust neighborhoods (§3.2-3.4) and complete
//     recommendation lists live in per-snapshot SIEVE caches, each filled
//     through its own singleflight group (computed), so a thundering herd
//     on one agent computes its neighborhood once;
//   - the catalog's TopicIndex is built on first use and carried across
//     a delta swap that adds no products; it answers any branch from one
//     arena, so its answers are not cached;
//   - the API layer's encoded response bodies live in a byte-budgeted
//     per-snapshot cache (Body/StoreBody), so a repeated GET within one
//     epoch is a lookup — nothing carries them across a swap and nothing
//     invalidates them: they die with the snapshot they describe;
//   - Warmup precomputes hot state for every agent with a worker pool,
//     so a freshly loaded corpus serves warm from the first request.
//
// Cache effectiveness is observable via expvar under "swrec_engine"
// (peers_hit/miss, results_hit/miss, body_hit/miss/bytes, flight_shared,
// swaps, warmed_agents; profile_hit counts profile rows served from the
// matrix, profile_miss the on-demand Eq. 3 builds of an engine whose
// filter compares product vectors).
package engine

import (
	"context"
	"expvar"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/index"
	"swrec/internal/metrics"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
	"swrec/internal/strategy"
)

// stats aggregates cache counters across all engines in the process.
var stats = expvar.NewMap("swrec_engine")

// The swrec_engine counters a request bumps, each resolved once. The
// publish, restore and warm-up counters stay on stats.Add.
var (
	bodyHitStat        = metrics.NewCounter(stats, "body_hit")
	bodyMissStat       = metrics.NewCounter(stats, "body_miss")
	bodyBytesStat      = metrics.NewCounter(stats, "body_bytes")
	peersHitStat       = metrics.NewCounter(stats, "peers_hit")
	peersMissStat      = metrics.NewCounter(stats, "peers_miss")
	resultsHitStat     = metrics.NewCounter(stats, "results_hit")
	resultsMissStat    = metrics.NewCounter(stats, "results_miss")
	flightSharedStat   = metrics.NewCounter(stats, "flight_shared")
	profileHitStat     = metrics.NewCounter(stats, "profile_hit")
	profileMissStat    = metrics.NewCounter(stats, "profile_miss")
	degradedServedStat = metrics.NewCounter(stats, "degraded_served")
	degradedStaleStat  = metrics.NewCounter(stats, "degraded_stale")
)

// ErrNoTaxonomy is returned by taxonomy-dependent lookups on communities
// that carry no taxonomy.
var ErrNoTaxonomy = fmt.Errorf("engine: community has no taxonomy")

// Config sizes the per-snapshot caches. Zero values select defaults
// generous enough to hold the paper-scale corpus (§4.1: 9,100 agents).
type Config struct {
	// PeerCacheSize bounds cached synthesized neighborhoods (default 16384).
	PeerCacheSize int
	// ResultCacheSize bounds cached complete recommendation lists, keyed
	// by (agent, n, overrides) — the snapshot is immutable, so the
	// stage-4 vote is a pure function of that key (default 8192).
	ResultCacheSize int
	// ComputeBudget bounds each cold-path flight (neighborhood synthesis,
	// full recommendation) independently of the triggering request's
	// deadline: a request that detaches leaves the computation running to
	// warm the cache, but never longer than this.
	// 0 means unbounded (the pre-deadline behavior).
	ComputeBudget time.Duration
	// Strategy shapes the quality ladder walked for hard queries (see
	// internal/strategy). The zero value enables every rung.
	Strategy strategy.Config
}

// degradeBudget bounds the stage-4 vote a degraded-answer probe may run
// over an already cached neighborhood.
const degradeBudget = 25 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.PeerCacheSize <= 0 {
		c.PeerCacheSize = 16384
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 8192
	}
	return c
}

// Overrides carries per-request deviations from the engine's default
// pipeline options. Nil fields keep the default. Distinct override
// combinations get distinct cache entries, so overridden requests warm
// their own state without poisoning the default path.
type Overrides struct {
	Metric  *core.Metric
	Alpha   *float64
	Measure *cf.Measure
	Content *core.ContentMode
}

// pipeKey identifies the stages-1-3 configuration (trust metric, α,
// similarity measure) plus the strategy-ladder rung a cached artifact
// belongs to. Content mode affects only the stage-4 vote, so
// neighborhoods are shared across content modes. It is a fixed-size
// comparable value: building one allocates nothing, unlike the string
// keys it replaced. Present/absent overrides are tracked with explicit
// flags rather than sentinel values so map-key equality stays exact.
type pipeKey struct {
	hasMetric  bool
	metric     core.Metric
	hasAlpha   bool
	alpha      float64
	hasMeasure bool
	measure    cf.Measure
	rung       byte // 0 = rung-1 pipeline; rungWiden / rungGen below
}

// contKey identifies the stage-4 content-mode override.
type contKey struct {
	set  bool
	mode core.ContentMode
}

// pipelineKey builds the stages-1-3 cache-key component.
func (ov Overrides) pipelineKey() pipeKey {
	var k pipeKey
	if ov.Metric != nil {
		k.hasMetric, k.metric = true, *ov.Metric
	}
	if ov.Alpha != nil {
		k.hasAlpha, k.alpha = true, *ov.Alpha
	}
	if ov.Measure != nil {
		k.hasMeasure, k.measure = true, *ov.Measure
	}
	return k
}

// contentKey builds the stage-4 cache-key component.
func (ov Overrides) contentKey() contKey {
	if ov.Content != nil {
		return contKey{set: true, mode: *ov.Content}
	}
	return contKey{}
}

// apply merges the overrides into a copy of the base options.
func (ov Overrides) apply(opt core.Options) core.Options {
	if ov.Metric != nil {
		opt.Metric = *ov.Metric
	}
	if ov.Alpha != nil {
		opt.Alpha, opt.AlphaSet = *ov.Alpha, true
	}
	if ov.Measure != nil {
		opt.CF.Measure = *ov.Measure
	}
	if ov.Content != nil {
		opt.Content = *ov.Content
	}
	return opt
}

// Snapshot is one immutable epoch of the serving state: a community view
// plus every cache derived from it. All methods are safe for concurrent
// use; returned slices and vectors are shared and must not be modified.
type Snapshot struct {
	epoch uint64
	comm  *model.Community
	opt   core.Options
	rec   *core.Recommender

	// The per-agent caches are keyed by community ordinal: the URI is
	// resolved once at the public entry point, everything below indexes
	// and hashes fixed-size values.
	peers   *computed[peerKey, *neighborhood]
	results *computed[recKey, []core.Recommendation]

	// bodies holds encoded API responses by request URL, weighed in
	// bytes. It is never carried by a delta swap and never checkpointed.
	bodies *sieveCache[bodyKey, storedBody]

	ixOnce sync.Once
	ix     atomic.Pointer[index.TopicIndex]

	agentsOnce    sync.Once
	agentsByTrust atomic.Pointer[[]model.AgentID]

	popOnce sync.Once
	popRank atomic.Pointer[[]core.Recommendation]
}

// newSnapshot builds a cold snapshot: every cache starts empty.
func newSnapshot(epoch uint64, comm *model.Community, opt core.Options, cfg Config) (*Snapshot, error) {
	return newSnapshotDelta(epoch, comm, opt, cfg, nil, nil)
}

// emptySnapshot builds the snapshot every constructor starts from: the
// recommender over comm and empty caches; nothing is compiled yet.
func emptySnapshot(epoch uint64, comm *model.Community, opt core.Options, cfg Config) (*Snapshot, error) {
	rec, err := core.New(comm, opt)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		epoch:   epoch,
		comm:    comm,
		opt:     opt,
		rec:     rec,
		peers:   newComputed[peerKey, *neighborhood](cfg.PeerCacheSize, cfg.ComputeBudget, &peersHitStat, &peersMissStat),
		results: newComputed[recKey, []core.Recommendation](cfg.ResultCacheSize, cfg.ComputeBudget, &resultsHitStat, &resultsMissStat),
		bodies:  newSieve[bodyKey, storedBody](bodyBudget),
	}, nil
}

// newSnapshotDelta builds a snapshot over comm and, when prev and d are
// both non-nil, carries over every artifact of the previous epoch whose
// dependency fingerprint (see Delta) the applied mutations left
// untouched: compiled profile rows, synthesized neighborhoods, complete
// recommendation lists, the topic index, and the trust-out agent
// ordering.
func newSnapshotDelta(epoch uint64, comm *model.Community, opt core.Options, cfg Config, prev *Snapshot, d *Delta) (*Snapshot, error) {
	s, err := emptySnapshot(epoch, comm, opt, cfg)
	if err != nil {
		return nil, err
	}
	rec := s.rec

	delta := prev != nil && d != nil
	// Compile the similarity substrate eagerly — the first request should
	// find warm rows, not pay the build. On a delta swap only the dirty
	// agents' rows are recompiled; the rest alias the previous arenas.
	var prevMat *profmat.Matrix
	var dirtyRow func(int32) bool
	if delta {
		prevMat = prev.rec.Filter().Matrix()
		dirtyRow = func(ord int32) bool { return d.RatingsChanged[ord] }
	}
	//nolint:ctxflow -- snapshot construction runs at New/Swap time, not on a request path; there is no caller deadline to thread
	if err := rec.Filter().CompileDelta(context.Background(), prevMat, dirtyRow); err != nil {
		return nil, err
	}
	if !delta {
		return s, nil
	}
	mat := rec.Filter().Matrix()
	stats.Add("carried_rows", int64(mat.Len()-mat.Built()))

	trustDirty := trustDirtySet(prev.rec.Adjacency(), comm.NumAgents(), d.TrustChanged)
	dirtyTrust := func(ord int32) bool {
		return trustDirty != nil && int(ord) < len(trustDirty) && trustDirty[ord]
	}
	nTrustDirty := 0
	for _, b := range trustDirty {
		if b {
			nTrustDirty++
		}
	}
	stats.Add("swap_delta", 1)
	stats.Add("dirty_agents", int64(nTrustDirty+len(d.RatingsChanged)))

	var nResults int64
	// Neighborhoods: the active agent must be clean of trust influence
	// and rating changes, and every ranked peer's profile (its ratings)
	// must be untouched — those are the similarity weights. Every ranking,
	// restored ones included, carries its peers' ordinals, which are
	// stable across the lineage.
	carried := make(map[peerKey]bool)
	for _, e := range prev.peers.entries() {
		if dirtyTrust(e.key.agent) || d.RatingsChanged[e.key.agent] {
			continue
		}
		if slices.ContainsFunc(e.val.ranks(), func(pr core.PeerRank) bool { return d.RatingsChanged[pr.Ord()] }) {
			continue
		}
		s.peers.add(e.key, e.val)
		carried[e.key] = true
	}
	// Results: the stage-4 vote reads the neighborhood plus the ranked
	// peers' positive ratings, the active agent's rated set, and (for
	// content filtering) the active profile — all of which a carried
	// neighborhood entry already certifies clean. Entries whose
	// neighborhood was evicted or dropped recompute.
	for _, e := range prev.results.entries() {
		if carried[peerKey{agent: e.key.agent, pipe: e.key.pipe}] {
			s.results.add(e.key, e.val)
			nResults++
		}
	}
	stats.Add("carried_peers", int64(len(carried)))
	stats.Add("carried_results", nResults)
	// The topic index survives any mutation batch that added no products
	// (the ingest path never mutates existing entries).
	if !d.ProductsChanged {
		if ix := prev.ix.Load(); ix != nil {
			s.ix.Store(ix)
		}
	}
	// The trust-out directory ordering depends on the agent set and every
	// out-degree.
	if !d.AgentsAdded && len(d.TrustChanged) == 0 {
		if ids := prev.agentsByTrust.Load(); ids != nil {
			s.agentsByTrust.Store(ids)
		}
	}
	// The popularity ranking (strategy ladder rung 4) reads every agent's
	// positive ratings and nothing else; products added without ratings
	// cannot appear in it.
	if !d.AgentsAdded && len(d.RatingsChanged) == 0 {
		if r := prev.popRank.Load(); r != nil {
			s.popRank.Store(r)
		}
	}
	return s, nil
}

// Epoch returns the snapshot's monotonically increasing publish number.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Community returns the snapshot's immutable community view.
func (s *Snapshot) Community() *model.Community { return s.comm }

// Recommender returns the default-options recommender bound to this
// snapshot.
func (s *Snapshot) Recommender() *core.Recommender { return s.rec }

// RecommenderFor returns a recommender honoring the given per-request
// overrides. Every variant a request can name shares the default
// recommender's adjacency and compiled profile matrix (a measure override
// is a view over it), so deriving one costs two small allocations and
// nothing is memoized.
func (s *Snapshot) RecommenderFor(ov Overrides) (*core.Recommender, error) {
	if ov == (Overrides{}) {
		return s.rec, nil
	}
	return s.rec.WithOptions(ov.apply(s.opt))
}

// neighborhood is a cached stage 1-3 ranking together with the two
// strategy-ladder signals that are functions of the whole ranking. They
// are summed by the first ladder walk that asks for them — not on every
// walk, and not when a restore, a carry or a lower rung installs a ranking
// no walk may ever read. Entries are shared by pointer across a delta
// swap, sums included.
//
// A ranking restored from a checkpoint arrives undecoded: decode fills
// list from load, the file's bytes, the first time anything reads it, so
// an entry a publish drops unread is never decoded at all.
type neighborhood struct {
	list    []core.PeerRank        // read through ranks
	load    func() []core.PeerRank // a restored entry's decoder until decode runs it
	decode  func()                 // set on a restored entry; run once by ranks
	decoded sync.Once
	once    sync.Once
	energy  float64 // Σ Trust, in rank order
	topSim  float64 // max Sim over the peers with SimOK; 0 when none
}

// ranks returns the ranking, decoding a restored one on first call.
func (nb *neighborhood) ranks() []core.PeerRank {
	if nb.decode != nil {
		nb.decoded.Do(nb.decode)
	}
	return nb.list
}

func (nb *neighborhood) signals() (energy, topSim float64) {
	nb.once.Do(func() {
		for _, p := range nb.ranks() {
			nb.energy += p.Trust
			if p.SimOK && p.Sim > nb.topSim {
				nb.topSim = p.Sim
			}
		}
	})
	return nb.energy, nb.topSim
}

// peerKey identifies a cached neighborhood: the active agent's ordinal
// and the stages-1-3 configuration. Structured so the delta-swap carry
// can reason about each component without parsing, and fixed-size so
// cache probes hash no strings.
type peerKey struct {
	agent int32
	pipe  pipeKey
}

// recKey identifies a cached recommendation list: the active agent's
// ordinal, the answer size, and the full variant split into its pipeline
// and content parts — the pipeline part ties a result to the
// neighborhood it was voted from.
type recKey struct {
	agent   int32
	n       int32
	pipe    pipeKey
	content contKey
}

// peersKey and resultKey build the cache keys shared by the serving,
// ladder and degradation paths, from an already-resolved agent ordinal
// and the rung whose artifact the entry is (0 for the rung-1 pipeline).
func peersKey(ord int32, ov Overrides, rung byte) peerKey {
	return peerKey{agent: ord, pipe: ov.pipelineKey().withRung(rung)}
}

func resultKey(ord int32, n int, ov Overrides, rung byte) recKey {
	return recKey{agent: ord, n: int32(n), pipe: ov.pipelineKey().withRung(rung), content: ov.contentKey()}
}

// unknownAgent mirrors the core pipeline's unknown-active error, so
// resolving the URI at the engine boundary is indistinguishable from
// letting the pipeline discover it.
func unknownAgent(id model.AgentID) error {
	return fmt.Errorf("%w: %s", core.ErrUnknownAgent, id)
}

// RankedPeers runs pipeline stages 1-3 for the active agent under the
// given overrides, serving from the neighborhood cache when warm and
// collapsing concurrent identical computations to one.
func (s *Snapshot) RankedPeers(active model.AgentID, ov Overrides) ([]core.PeerRank, error) {
	return s.RankedPeersCtx(context.Background(), active, ov)
}

// RankedPeersCtx is RankedPeers with a request deadline: a cache hit is
// served unconditionally (it costs nothing), while a cold-path caller
// waits only until ctx is done — detaching with ctx.Err() while the
// computation continues under the engine's compute budget and fills the
// cache for the next request.
func (s *Snapshot) RankedPeersCtx(ctx context.Context, active model.AgentID, ov Overrides) ([]core.PeerRank, error) {
	a := s.comm.Agent(active)
	if a == nil {
		return nil, unknownAgent(active)
	}
	nb, err := s.neighborhoodRef(ctx, a, ov, 0, nil)
	if err != nil {
		return nil, err
	}
	return nb.ranks(), nil
}

// neighborhoodRef is RankedPeersCtx after the one URI resolution, for
// any rung's peer ranking: rung 0 is stages 1-3 of the pipeline,
// rungWiden (strategy ladder rung 2) widens base, the rung-0 ranking, by
// one trust hop and re-synthesizes it, and rungGen (rung 3) re-ranks base
// over taxonomy ancestors. Every cache and flight key is built from the
// agent's ordinal.
func (s *Snapshot) neighborhoodRef(ctx context.Context, a *model.Agent, ov Overrides, rung byte, base []core.PeerRank) (*neighborhood, error) {
	key := peersKey(a.Ord(), ov, rung)
	if nb, ok := s.peers.lookup(key); ok {
		return nb, nil
	}
	return s.peers.fill(ctx, key, func(fctx context.Context) (*neighborhood, error) {
		rec, err := s.RecommenderFor(ov)
		if err != nil {
			return nil, err
		}
		var peers []core.PeerRank
		switch rung {
		case rungWiden:
			peers, err = rec.SynthesizeCtx(fctx, a.ID, s.widen(rec, a, base))
		case rungGen:
			peers, err = strategy.GeneralizedPeers(fctx, rec, a.ID, base, ov.apply(s.opt).BlendAlpha(), strategy.AncestorDepth)
		default:
			peers, err = rec.RankedPeersCtx(fctx, a.ID)
		}
		if err != nil {
			return nil, err
		}
		return &neighborhood{list: peers}, nil
	})
}

// CachedPeers peeks the neighborhood cache without computing anything —
// the degradation probe's view of stages 1-3.
//
//swrec:hotpath
func (s *Snapshot) CachedPeers(active model.AgentID, ov Overrides) ([]core.PeerRank, bool) {
	a := s.comm.Agent(active)
	if a == nil {
		return nil, false
	}
	nb, ok := s.peers.get(peersKey(a.Ord(), ov, 0))
	if !ok {
		return nil, false
	}
	return nb.ranks(), true
}

// Recommend runs the full pipeline for the active agent: cached
// neighborhood (stages 1-3) plus the stage-4 vote. Because the snapshot
// is immutable, the complete result is itself a pure function of
// (agent, n, overrides) and is served from the result cache on repeat —
// a repeated identical request costs O(answer), independent of community
// size.
func (s *Snapshot) Recommend(active model.AgentID, n int, ov Overrides) ([]core.Recommendation, error) {
	return s.RecommendCtx(context.Background(), active, n, ov)
}

// RecommendCtx is Recommend with a request deadline; see RankedPeersCtx
// for the detach semantics. The inner pipeline runs entirely under the
// flight's compute-budget context, not the caller's.
func (s *Snapshot) RecommendCtx(ctx context.Context, active model.AgentID, n int, ov Overrides) ([]core.Recommendation, error) {
	a := s.comm.Agent(active)
	if a == nil {
		return nil, unknownAgent(active)
	}
	return s.recommendRef(ctx, a, n, ov, 0, nil)
}

// recommendRef is RecommendCtx after the one URI resolution, for any
// rung's answer: the stage-4 vote over neighborhoodRef's ranking for the
// same rung and base.
func (s *Snapshot) recommendRef(ctx context.Context, a *model.Agent, n int, ov Overrides, rung byte, base []core.PeerRank) ([]core.Recommendation, error) {
	key := resultKey(a.Ord(), n, ov, rung)
	if recs, ok := s.results.lookup(key); ok {
		return recs, nil
	}
	return s.results.fill(ctx, key, func(fctx context.Context) ([]core.Recommendation, error) {
		nb, err := s.neighborhoodRef(fctx, a, ov, rung, base)
		if err != nil {
			return nil, err
		}
		rec, err := s.RecommenderFor(ov)
		if err != nil {
			return nil, err
		}
		return rec.RecommendFromCtx(fctx, a.ID, nb.ranks(), n)
	})
}

// CachedRecommend peeks the result cache without computing anything.
//
//swrec:hotpath
func (s *Snapshot) CachedRecommend(active model.AgentID, n int, ov Overrides) ([]core.Recommendation, bool) {
	a := s.comm.Agent(active)
	if a == nil {
		return nil, false
	}
	return s.results.get(resultKey(a.Ord(), n, ov, 0))
}

// Profile returns the agent's interest profile: its row of the compiled
// matrix the snapshot's filter compares, shared and read-only.
func (s *Snapshot) Profile(active model.AgentID) (*profmat.Row, error) {
	return s.ProfileCtx(context.Background(), active)
}

// ProfileCtx is Profile with a request deadline. Only an engine whose
// filter compares product-rating vectors has no taxonomy-space row to
// return: it builds the agent's default Eq. 3 profile on demand, under
// ctx, and keeps nothing.
func (s *Snapshot) ProfileCtx(ctx context.Context, active model.AgentID) (*profmat.Row, error) {
	tax := s.comm.Taxonomy()
	if tax == nil {
		return nil, ErrNoTaxonomy
	}
	a := s.comm.Agent(active)
	if a == nil {
		return nil, unknownAgent(active)
	}
	if row := s.profileRow(a.Ord()); row != nil {
		return row, nil
	}
	profileMissStat.Add(1)
	row, err := profile.New(tax).ProfileCtx(ctx, a, s.comm)
	if err != nil {
		return nil, err
	}
	return &row, nil
}

// profileRow returns the matrix row of the agent with the given ordinal
// when the rows are taxonomy profiles, nil when they are product vectors.
//
//swrec:hotpath
func (s *Snapshot) profileRow(ord int32) *profmat.Row {
	f := s.rec.Filter()
	if f.Generator() == nil {
		return nil
	}
	profileHitStat.Add(1)
	return f.Matrix().Row(ord)
}

// TopicIndex returns the snapshot's catalog index, building it on first
// use — unless the delta swap already carried the previous epoch's index
// across an unchanged catalog.
func (s *Snapshot) TopicIndex() *index.TopicIndex {
	if ix := s.ix.Load(); ix != nil {
		return ix
	}
	s.ixOnce.Do(func() { s.ix.Store(index.Build(s.comm)) })
	return s.ix.Load()
}

// AgentsByTrustOut returns all agent IDs ordered by descending trust
// out-degree (ties by ID), computed once per snapshot — the ordering the
// agent directory endpoint pages through. The slice is shared; callers
// must not modify it.
func (s *Snapshot) AgentsByTrustOut() []model.AgentID {
	if ids := s.agentsByTrust.Load(); ids != nil {
		return *ids
	}
	s.agentsOnce.Do(func() {
		ids := append([]model.AgentID(nil), s.comm.Agents()...)
		deg := func(id model.AgentID) int { return len(s.comm.Agent(id).TrustedPeers()) }
		sort.Slice(ids, func(i, j int) bool {
			di, dj := deg(ids[i]), deg(ids[j])
			if di != dj {
				return di > dj
			}
			return ids[i] < ids[j]
		})
		s.agentsByTrust.Store(&ids)
	})
	return *s.agentsByTrust.Load()
}

// Engine owns the current snapshot and the swap discipline around it.
type Engine struct {
	cfg    Config
	opt    core.Options
	start  time.Time
	ladder *strategy.Ladder

	swapMu sync.Mutex // serializes Swap; epoch increments under it
	snap   atomic.Pointer[Snapshot]
	// prev retains the previously published snapshot: its caches are the
	// last line of graceful degradation — a stale-but-instant answer beats
	// a 504 when the current epoch is cold (§2 scalability under load).
	prev atomic.Pointer[Snapshot]
}

// New validates the options against the community and installs epoch 1.
// The community (and any community later passed to Swap) must not be
// mutated while the engine serves from it — crawlers build a fresh view
// and publish it with Swap.
func New(comm *model.Community, opt core.Options, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	ladder, err := strategy.New(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	snap, err := newSnapshot(1, comm, opt, cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, opt: opt, start: time.Now(), ladder: ladder}
	e.snap.Store(snap)
	return e, nil
}

// Ladder returns the engine's configured strategy ladder.
func (e *Engine) Ladder() *strategy.Ladder { return e.ladder }

// Snapshot returns the current epoch's state. Handlers call this once
// per request and read only through the returned snapshot, so a
// concurrent Swap never mixes epochs within one request.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Epoch returns the current snapshot's epoch.
func (e *Engine) Epoch() uint64 { return e.Snapshot().epoch }

// Options returns the engine's default pipeline options.
func (e *Engine) Options() core.Options { return e.opt }

// Uptime reports how long the engine has been serving.
func (e *Engine) Uptime() time.Duration { return time.Since(e.start) }

// Swap atomically publishes a new community view under the next epoch.
// The previous snapshot stays valid for requests that already pinned it;
// its caches are garbage once those drain. Returns the installed
// snapshot. On error (e.g. the new community is incompatible with the
// engine's options) the current snapshot remains in place.
func (e *Engine) Swap(comm *model.Community) (*Snapshot, error) {
	return e.SwapDelta(comm, nil)
}

// SwapDelta is Swap informed by what actually changed: the write path
// summarizes its applied mutation batch in d, and the new snapshot starts
// with every still-valid artifact of the previous epoch — compiled
// profile rows, neighborhoods and results whose dependency fingerprints
// the batch left untouched — instead of cold caches. A nil d degrades to
// a full cold swap. Correctness does not depend on d being minimal, only
// on it covering every change.
func (e *Engine) SwapDelta(comm *model.Community, d *Delta) (*Snapshot, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.snap.Load()
	snap, err := newSnapshotDelta(cur.epoch+1, comm, e.opt, e.cfg, cur, d)
	if err != nil {
		return nil, err
	}
	e.prev.Store(cur)
	e.snap.Store(snap)
	stats.Add("swaps", 1)
	return snap, nil
}

// Previous returns the snapshot published before the current one, or nil
// before the first Swap. Degradation probes read its caches; new work is
// never scheduled on it.
func (e *Engine) Previous() *Snapshot { return e.prev.Load() }

// degradedPeers attempts a cheap partial answer for a neighborhood
// request whose full computation missed its deadline: a pure lookup in
// the neighborhood cache (see degraded).
func (e *Engine) degradedPeers(active model.AgentID, ov Overrides) (peers []core.PeerRank, source string, epoch uint64, ok bool) {
	return degraded(e, func(s *Snapshot) ([]core.PeerRank, string, bool) {
		peers, ok := s.CachedPeers(active, ov)
		return peers, "peers-cache", ok
	})
}

// degradedRecommend attempts a cheap partial answer for a recommendation
// request whose full computation missed its deadline, probing each
// snapshot (see degraded) in order of decreasing fidelity:
//
//  1. its result cache (a concurrent flight may have just completed);
//  2. a fresh stage-4 vote over its *cached* neighborhood, bounded by
//     degradeBudget.
//
// No trust or similarity computation is ever started — probes only spend
// what earlier requests already paid for.
func (e *Engine) degradedRecommend(active model.AgentID, n int, ov Overrides) (recs []core.Recommendation, source string, epoch uint64, ok bool) {
	return degraded(e, func(s *Snapshot) ([]core.Recommendation, string, bool) {
		if recs, ok := s.CachedRecommend(active, n, ov); ok {
			return recs, "result-cache", true
		}
		peers, ok := s.CachedPeers(active, ov)
		if !ok {
			return nil, "", false
		}
		rec, err := s.RecommenderFor(ov)
		if err != nil {
			return nil, "", false
		}
		ctx, cancel := context.WithTimeout(context.Background(), degradeBudget) //nolint:ctxflow -- degraded-path probe: the caller's deadline has already expired, so the probe runs on its own small budget
		defer cancel()
		recs, err := rec.RecommendFromCtx(ctx, active, peers, n)
		if err != nil {
			return nil, "", false
		}
		return recs, "peers-vote", true
	})
}

// degraded runs probe against the current snapshot, then the previous
// epoch's, and returns the first answer. epoch reports which snapshot
// answered; the previous epoch's answers are stale (< current, they
// predate the last swap) and their source carries the "prev-" prefix.
func degraded[T any](e *Engine, probe func(*Snapshot) (T, string, bool)) (out T, source string, epoch uint64, ok bool) {
	for i, s := range [2]*Snapshot{e.Snapshot(), e.Previous()} {
		if s == nil {
			continue
		}
		if out, source, ok := probe(s); ok {
			degradedServedStat.Add(1)
			if i > 0 {
				degradedStaleStat.Add(1)
				source = "prev-" + source
			}
			return out, source, s.epoch, true
		}
	}
	return out, "", 0, false
}

// WarmupResult reports what a Warmup pass touched.
type WarmupResult struct {
	Agents   int           // agents whose hot state was precomputed
	Duration time.Duration // wall-clock time of the pass
}

// Warmup precomputes every agent's neighborhood on the current snapshot
// with a pool of workers (default GOMAXPROCS when workers <= 0), so a
// freshly loaded corpus serves its first requests from warm caches
// (profiles need no warming: the matrix is compiled with the snapshot).
// Errors on individual agents are skipped: warming is best-effort and
// the serving path recomputes on demand.
func (e *Engine) Warmup(workers int) WarmupResult {
	return e.WarmupCtx(context.Background(), workers)
}

// WarmupCtx is Warmup bounded by ctx: no new agent is dispatched after
// ctx is done, in-flight per-agent work observes the cancellation at its
// internal checkpoints, and the result reports how many agents were
// actually warmed. A server shutting down mid-warmup stops promptly
// instead of grinding through the remaining corpus.
func (e *Engine) WarmupCtx(ctx context.Context, workers int) WarmupResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	snap := e.Snapshot()
	ids := snap.comm.Agents()
	jobs := make(chan model.AgentID)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range jobs {
				// The reference fills the cache; a restored entry it finds
				// stays undecoded until a request reads it.
				if a := snap.comm.Agent(id); a != nil {
					_, _ = snap.neighborhoodRef(ctx, a, Overrides{}, 0, nil)
				}
			}
		}()
	}
	warmed := 0
dispatch:
	for _, id := range ids {
		select {
		case jobs <- id:
			warmed++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if ctx.Err() == nil {
		snap.TopicIndex()
	}
	stats.Add("warmed_agents", int64(warmed))
	return WarmupResult{Agents: warmed, Duration: time.Since(start)}
}
