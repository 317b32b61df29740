// Package resilience provides the failure-isolation primitives the open
// Semantic Web demands: per-host circuit breakers and bounded retry with
// jittered backoff.
//
// The paper's substrate is adversarial by construction — agents publish
// machine-readable homepages that can be slow, garbage, or gone (§2
// "security", §4.1 freshness), and the distributed trust-aware systems
// swrec descends from treat peer unavailability as the normal case, not
// the exception. A crawler that keeps hammering a dead host pins its
// workers and starves every healthy host behind it; a breaker converts
// that slow collapse into a fast, observable rejection that heals itself
// once the host recovers.
//
// State machine (the classic three states):
//
//	closed    requests flow; outcomes feed a rolling sample window. Once
//	          at least MinSamples outcomes are recorded and the failure
//	          rate reaches FailureThreshold, the breaker opens.
//	open      requests are rejected outright (Allow returns false) until
//	          OpenFor has elapsed, then the breaker half-opens.
//	half-open a limited number of probe requests pass through. Probes
//	          that all succeed close the breaker (window reset); any
//	          probe failure re-opens it for another OpenFor.
//
// Breakers are deterministic given a deterministic clock: tests inject
// one via WithClock. Transitions and rejections are exported process-wide
// under the "swrec_resilience" expvar map.
package resilience

import (
	"sync"
	"time"

	"swrec/internal/metrics"
)

// stats aggregates breaker counters across the process.
var (
	stats        = metrics.NewMap("resilience")
	openedStat   = stats.Counter("opened")
	reopenedStat = stats.Counter("reopened")
	closedStat   = stats.Counter("closed")
	halfOpenStat = stats.Counter("half_open")
	rejectedStat = stats.Counter("rejected")
)

// State is a breaker's position in the closed→open→half-open machine.
type State int

const (
	// Closed is the healthy state: requests flow freely.
	Closed State = iota
	// Open is the tripped state: requests are rejected without work.
	Open
	// HalfOpen is the probing state: a bounded number of requests pass.
	HalfOpen
)

// String names the state for stats and logs.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes one breaker. Zero values select defaults suited to
// crawl fetches: trip at a 50% failure rate over the last 16 outcomes
// (once 8 are recorded), stay open 30s, close after 2 clean probes.
type BreakerConfig struct {
	// FailureThreshold is the failure rate in (0,1] that trips a closed
	// breaker (default 0.5).
	FailureThreshold float64
	// Window is the number of most recent outcomes considered (default 16).
	Window int
	// MinSamples is the minimum number of recorded outcomes before the
	// rate is trusted — a single failed first fetch must not trip the
	// breaker (default Window/2).
	MinSamples int
	// OpenFor is how long a tripped breaker rejects before probing again
	// (default 30s).
	OpenFor time.Duration
	// HalfOpenProbes is how many consecutive probe successes close a
	// half-open breaker; any probe failure re-opens it (default 2).
	HalfOpenProbes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 || c.FailureThreshold > 1 {
		c.FailureThreshold = 0.5
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Window / 2
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 30 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 2
	}
	return c
}

// Breaker is one circuit breaker. All methods are safe for concurrent
// use. The zero value is not usable; use NewBreaker.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu       sync.Mutex
	state    State
	window   []bool // ring of outcomes, true = failure
	head     int    // next write position in window
	samples  int    // outcomes recorded (≤ len(window))
	failures int    // failures currently in the window
	openedAt time.Time
	inFlight int // probes admitted while half-open
	probeOK  int // consecutive probe successes while half-open
}

// NewBreaker creates a breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, now: time.Now, window: make([]bool, cfg.Window)}
}

// WithClock substitutes the breaker's time source (tests only). Returns
// the breaker for chaining.
func (b *Breaker) WithClock(now func() time.Time) *Breaker {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
	return b
}

// State reports the breaker's current state, advancing open→half-open if
// the cooldown has elapsed.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	return b.state
}

// tickLocked advances open→half-open once OpenFor has elapsed.
func (b *Breaker) tickLocked() {
	if b.state == Open && b.now().Sub(b.openedAt) >= b.cfg.OpenFor {
		b.state = HalfOpen
		b.inFlight = 0
		b.probeOK = 0
		halfOpenStat.Add(1)
	}
}

// Allow reports whether a request may proceed. A half-open breaker admits
// at most HalfOpenProbes concurrent probes. Every admitted request must
// be answered with exactly one Record call.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.inFlight < b.cfg.HalfOpenProbes {
			b.inFlight++
			return true
		}
		rejectedStat.Add(1)
		return false
	default: // Open
		rejectedStat.Add(1)
		return false
	}
}

// Record feeds one admitted request's outcome back into the breaker.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		if !success {
			b.state = Open
			b.openedAt = b.now()
			reopenedStat.Add(1)
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenProbes {
			// Recovered: forget the failure history.
			b.state = Closed
			b.samples, b.failures, b.head = 0, 0, 0
			closedStat.Add(1)
		}
	case Closed:
		if b.samples == len(b.window) && b.window[b.head] {
			b.failures-- // the outcome falling out of the window
		}
		b.window[b.head] = !success
		b.head = (b.head + 1) % len(b.window)
		if b.samples < len(b.window) {
			b.samples++
		}
		if !success {
			b.failures++
		}
		if b.samples >= b.cfg.MinSamples &&
			float64(b.failures)/float64(b.samples) >= b.cfg.FailureThreshold {
			b.state = Open
			b.openedAt = b.now()
			openedStat.Add(1)
		}
	default:
		// Open: a straggler recording after the trip; ignored.
	}
}

// Group manages one breaker per key (typically per host), created
// lazily with a shared configuration. Safe for concurrent use.
type Group struct {
	cfg BreakerConfig
	now func() time.Time

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewGroup creates a breaker group.
func NewGroup(cfg BreakerConfig) *Group {
	return &Group{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// WithClock substitutes the time source used by breakers the group
// creates from now on (tests only). Returns the group for chaining.
func (g *Group) WithClock(now func() time.Time) *Group {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.now = now
	return g
}

// For returns the breaker for key, creating it on first use.
func (g *Group) For(key string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.m[key]
	if !ok {
		b = NewBreaker(g.cfg)
		if g.now != nil {
			b.now = g.now
		}
		g.m[key] = b
	}
	return b
}

// States snapshots every breaker's current state, keyed as For was
// called — the observability hook behind crawler Stats and expvar.
func (g *Group) States() map[string]State {
	g.mu.Lock()
	keys := make([]string, 0, len(g.m))
	breakers := make([]*Breaker, 0, len(g.m))
	for k, b := range g.m {
		keys = append(keys, k)
		breakers = append(breakers, b)
	}
	g.mu.Unlock()
	out := make(map[string]State, len(keys))
	for i, k := range keys {
		out[k] = breakers[i].State()
	}
	return out
}
