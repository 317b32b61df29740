// Package crawler implements the mining side of §4.1: "tailored crawlers
// search the Web for weblogs and ensure data freshness". Starting from
// seed agents, it fetches machine-readable homepages over HTTP, parses
// their RDF, materializes trust statements and ratings into a local
// model.Community, and follows positive trust edges breadth-first — the
// asynchronous, data-centric message exchange of §2 (documents are
// published and fetched; there is no synchronous peer messaging).
//
// Fetched documents are cached in an embedded document store (package
// store); a re-crawl with Refresh=false reuses cached documents, so the
// crawler degrades gracefully when parts of the Web are unreachable.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"swrec/internal/foaf"
	"swrec/internal/model"
	"swrec/internal/rdf"
	"swrec/internal/resilience"
	"swrec/internal/store"
	"swrec/internal/taxonomy"
)

// maxDocumentBytes bounds a single fetched document; the Semantic Web
// cannot be trusted not to serve garbage of arbitrary size (§2, security).
const maxDocumentBytes = 16 << 20

var (
	// ErrNoSeeds is returned when Crawl is invoked without seed agents.
	ErrNoSeeds = errors.New("crawler: no seed agents")
	// ErrHostSuspended marks a fetch rejected because the host's circuit
	// breaker is open: the host has been failing and is in cooldown.
	ErrHostSuspended = errors.New("crawler: host suspended by circuit breaker")
)

// Crawler fetches and materializes a community. Zero-value fields take
// defaults; Client defaults to http.DefaultClient (tests inject the
// virtual Internet's client).
type Crawler struct {
	// Client performs the HTTP fetches.
	Client *http.Client
	// Cache, if non-nil, stores raw fetched documents keyed by URL.
	Cache *store.Store
	// Refresh forces re-fetching even when the cache holds a document.
	Refresh bool
	// MaxAgents bounds how many homepages are crawled (0 = unlimited).
	MaxAgents int
	// MaxDepth bounds the BFS depth from the seeds (0 = unlimited).
	MaxDepth int
	// Concurrency is the number of parallel fetch workers. Default 8.
	Concurrency int
	// FollowDistrust also crawls explicitly distrusted peers. Off by
	// default: their statements would never be used (§3.2).
	FollowDistrust bool
	// IgnoreRobots skips the robots.txt check. By default the crawler
	// fetches each host's /robots.txt once and honors its Disallow
	// prefixes for homepage fetches.
	IgnoreRobots bool
	// Timeout bounds one fetch (homepage or robots.txt). Default 10s.
	Timeout time.Duration
	// RetryBackoff is the base delay before the first retry of a
	// transiently failed fetch (timeout, connection error, or 5xx);
	// subsequent retries back off exponentially, each jittered in
	// [0.5, 1.5) of its base so a re-crawl does not hammer a recovering
	// host in lockstep. Default 500ms.
	RetryBackoff time.Duration
	// MaxRetries bounds re-attempts of a transiently failed fetch after
	// the first try. 0 keeps the default of one retry; negative disables
	// retrying entirely.
	MaxRetries int
	// Breaker tunes the per-host circuit breakers every fetch consults:
	// a host whose recent fetches mostly failed is suspended for a
	// cooldown instead of pinning workers on a dead peer (the Semantic
	// Web treats unavailability as the normal case, not the exception).
	// Zero values take the resilience package defaults.
	Breaker resilience.BreakerConfig

	breakerOnce sync.Once
	breakers    *resilience.Group
}

// Stats reports what one crawl did.
type Stats struct {
	Fetched      int // documents retrieved over HTTP (200)
	FromCache    int // documents served from the local store without network
	NotModified  int // conditional refreshes answered 304 (cache reused)
	Failed       int // fetch or parse failures (skipped, crawl continues)
	Skipped      int // agents not visited due to MaxAgents/MaxDepth bounds
	RobotsDenied int // homepages skipped because robots.txt disallows them
	Retried      int // transient fetch failures retried after backoff
	StaleServed  int // fetches that failed but were answered from cache
	BreakerOpen  int // fetches rejected because the host's breaker was open
}

// Result is a materialized community plus crawl statistics.
type Result struct {
	Community *model.Community //nolint:snapshotpin -- freshly assembled crawl output on its way INTO Engine.Swap, not a retained snapshot view
	Stats     Stats
}

// etagKey is the cache key holding the ETag a document was fetched with.
func etagKey(url string) string { return "etag\x00" + url }

// fetchDoc retrieves url, returning the raw document.
//
// Cache protocol: without Refresh, a cached document short-circuits the
// network entirely. With Refresh and a cached ETag, the request is
// conditional (If-None-Match); a 304 reuses the cached bytes — the
// "ensure data freshness" re-crawl of §4.1 at the cost of one round trip
// per unchanged homepage.
//
// Failure protocol: a transient failure (timeout, connection error, 5xx)
// is retried up to MaxRetries times with jittered exponential backoff;
// if the retries exhaust and a cached copy exists, the stale copy is
// served — the crawler "degrades gracefully when parts of the Web are
// unreachable" instead of dropping an agent it has seen before. Every
// fetch outcome feeds the host's circuit breaker; an open breaker
// rejects the fetch up front (stale cache still applies).
func (c *Crawler) fetchDoc(ctx context.Context, rawURL string, st *Stats, mu *sync.Mutex) ([]byte, error) {
	var cached []byte
	var cachedETag string
	if c.Cache != nil {
		if data, ok, err := c.Cache.Get(rawURL); err == nil && ok {
			cached = data
			if !c.Refresh {
				mu.Lock()
				st.FromCache++
				mu.Unlock()
				return data, nil
			}
			if tag, ok, err := c.Cache.Get(etagKey(rawURL)); err == nil && ok {
				cachedETag = string(tag)
			}
		}
	}

	serveStaleOr := func(err error) ([]byte, error) {
		if cached != nil {
			mu.Lock()
			st.StaleServed++
			mu.Unlock()
			return cached, nil
		}
		return nil, err
	}

	br := c.breakerFor(rawURL)
	if br != nil && !br.Allow() {
		mu.Lock()
		st.BreakerOpen++
		mu.Unlock()
		return serveStaleOr(fmt.Errorf("crawler: fetch %s: %w", rawURL, ErrHostSuspended))
	}

	attempts := 1 + c.MaxRetries
	if c.MaxRetries == 0 {
		attempts = 2 // default: one retry
	} else if c.MaxRetries < 0 {
		attempts = 1
	}
	var data []byte
	retries, err := resilience.Retry(ctx, attempts, c.RetryBackoff, func() (bool, error) {
		var transient bool
		var ferr error
		data, transient, ferr = c.fetchOnce(ctx, rawURL, cached, cachedETag, st, mu)
		return transient, ferr
	})
	if retries > 0 {
		mu.Lock()
		st.Retried += retries
		mu.Unlock()
	}
	if br != nil {
		br.Record(err == nil)
	}
	if err != nil {
		return serveStaleOr(err)
	}
	return data, nil
}

// breakerFor returns the circuit breaker guarding rawURL's host, or nil
// when the URL has no host.
func (c *Crawler) breakerFor(rawURL string) *resilience.Breaker {
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return nil
	}
	c.breakerOnce.Do(func() { c.breakers = resilience.NewGroup(c.Breaker) })
	return c.breakers.For(u.Host)
}

// BreakerStates snapshots the per-host breaker states accumulated so
// far — the observability hook for operators watching a long crawl.
// Before the first fetch it is an empty map.
func (c *Crawler) BreakerStates() map[string]resilience.State {
	if c.breakers == nil {
		return map[string]resilience.State{}
	}
	return c.breakers.States()
}

// fetchOnce performs one fetch attempt. transient reports whether the
// failure class is worth one retry (network error or 5xx, as opposed to
// a 4xx or a malformed URL).
func (c *Crawler) fetchOnce(ctx context.Context, url string, cached []byte, cachedETag string, st *Stats, mu *sync.Mutex) (data []byte, transient bool, err error) {
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	fctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, fmt.Errorf("crawler: request %s: %w", url, err)
	}
	if cachedETag != "" {
		req.Header.Set("If-None-Match", cachedETag)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("crawler: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && cached != nil {
		mu.Lock()
		st.NotModified++
		mu.Unlock()
		return cached, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode >= 500,
			fmt.Errorf("crawler: fetch %s: status %d", url, resp.StatusCode)
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, maxDocumentBytes))
	if err != nil {
		return nil, true, fmt.Errorf("crawler: read %s: %w", url, err)
	}
	mu.Lock()
	st.Fetched++
	mu.Unlock()
	if c.Cache != nil {
		if err := c.Cache.Put(url, data); err != nil {
			return nil, false, fmt.Errorf("crawler: cache: %w", err)
		}
		if tag := resp.Header.Get("ETag"); tag != "" {
			if err := c.Cache.Put(etagKey(url), []byte(tag)); err != nil {
				return nil, false, fmt.Errorf("crawler: cache etag: %w", err)
			}
		}
	}
	return data, false, nil
}

// Crawl materializes a community: it loads the global taxonomy and catalog
// documents (either URL may be empty to skip), then BFS-crawls agent
// homepages from the seeds. Fetch and parse failures of individual
// homepages are counted and skipped; the crawl only fails outright on
// taxonomy/catalog errors or context cancellation.
func (c *Crawler) Crawl(ctx context.Context, taxonomyURL, catalogURL string, seeds []model.AgentID) (*Result, error) {
	if len(seeds) == 0 {
		return nil, ErrNoSeeds
	}
	var mu sync.Mutex // guards stats and community
	res := &Result{}

	// Global documents first (§3.1: taxonomy and catalog are public).
	var tax *taxonomy.Taxonomy
	if taxonomyURL != "" {
		data, err := c.fetchDoc(ctx, taxonomyURL, &res.Stats, &mu)
		if err != nil {
			return nil, err
		}
		g, err := rdf.ParseDocument(string(data))
		if err != nil {
			return nil, fmt.Errorf("crawler: taxonomy: %w", err)
		}
		tax, err = foaf.UnmarshalTaxonomy(g)
		if err != nil {
			return nil, fmt.Errorf("crawler: taxonomy: %w", err)
		}
	}
	comm := model.NewCommunity(tax)
	res.Community = comm
	if catalogURL != "" {
		data, err := c.fetchDoc(ctx, catalogURL, &res.Stats, &mu)
		if err != nil {
			return nil, err
		}
		g, err := rdf.ParseDocument(string(data))
		if err != nil {
			return nil, fmt.Errorf("crawler: catalog: %w", err)
		}
		if err := foaf.UnmarshalCatalog(g, comm); err != nil {
			return nil, fmt.Errorf("crawler: catalog: %w", err)
		}
	}

	// BFS over homepages with a bounded worker pool per level
	// (level-synchronous keeps MaxDepth exact and the result
	// deterministic given deterministic documents).
	concurrency := c.Concurrency
	if concurrency <= 0 {
		concurrency = 8
	}
	var robots *robotsCache
	if !c.IgnoreRobots {
		robots = newRobotsCache(c.Client, c.Timeout)
	}
	visited := map[model.AgentID]bool{}
	frontier := make([]model.AgentID, 0, len(seeds))
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			frontier = append(frontier, s)
		}
	}
	depth := 0
	crawled := 0
	for len(frontier) > 0 {
		if c.MaxDepth > 0 && depth > c.MaxDepth {
			mu.Lock()
			res.Stats.Skipped += len(frontier)
			mu.Unlock()
			break
		}
		// Respect MaxAgents: truncate the frontier.
		if c.MaxAgents > 0 && crawled+len(frontier) > c.MaxAgents {
			keep := c.MaxAgents - crawled
			if keep < 0 {
				keep = 0
			}
			mu.Lock()
			res.Stats.Skipped += len(frontier) - keep
			mu.Unlock()
			frontier = frontier[:keep]
			if len(frontier) == 0 {
				break
			}
		}
		crawled += len(frontier)

		homepages := make([]*foaf.Homepage, len(frontier))
		sem := make(chan struct{}, concurrency)
		var wg sync.WaitGroup
		for i, id := range frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, id model.AgentID) {
				defer wg.Done()
				defer func() { <-sem }()
				if robots != nil && !robots.allowed(ctx, string(id)) {
					mu.Lock()
					res.Stats.RobotsDenied++
					mu.Unlock()
					return
				}
				data, err := c.fetchDoc(ctx, string(id), &res.Stats, &mu)
				if err != nil {
					mu.Lock()
					res.Stats.Failed++
					mu.Unlock()
					return
				}
				g, err := rdf.ParseDocument(string(data))
				if err != nil {
					mu.Lock()
					res.Stats.Failed++
					mu.Unlock()
					return
				}
				h, err := foaf.Unmarshal(g)
				if err != nil || h.Agent != id {
					// A homepage claiming to be someone else is dropped:
					// subjective security means statements only count from
					// the document at the agent's own URI (§2, spoofing).
					mu.Lock()
					res.Stats.Failed++
					mu.Unlock()
					return
				}
				homepages[i] = &h
			}(i, id)
		}
		wg.Wait()

		// Merge sequentially in frontier order for determinism; collect
		// the next frontier.
		var next []model.AgentID
		for _, h := range homepages {
			if h == nil {
				continue
			}
			if err := h.ApplyTo(comm); err != nil {
				mu.Lock()
				res.Stats.Failed++
				mu.Unlock()
				continue
			}
			for _, st := range h.Trust {
				if st.Value <= 0 && !c.FollowDistrust {
					continue
				}
				if !visited[st.Dst] {
					visited[st.Dst] = true
					next = append(next, st.Dst)
				}
			}
		}
		frontier = next
		depth++
	}
	return res, nil
}
