package engine

import (
	"context"
	"sync"
	"time"

	"swrec/internal/metrics"
)

// computed is a per-snapshot sieveCache filled by computation — the
// neighborhood cache and the results cache — together with the
// singleflight group that fills it, keyed by the cache's own key. Its
// two methods are the engine's one cache-or-compute path: lookup probes
// and counts a hit; on a miss the caller hands fill the computation.
// The caller builds that closure only after lookup missed, so a hit
// allocates nothing.
//
// The flight discipline is the classic singleflight pattern (stdlib has
// no exported version, and the module is dependency-free) with one
// deadline-era twist: the computation runs on its own goroutine under a
// flight context independent of any single caller, bounded by the
// engine's ComputeBudget, and every caller — including the one that
// started the flight — waits with a select against its own request
// context. A caller whose deadline fires detaches immediately with
// ctx.Err() while the computation keeps running and completes the cache
// fill, so the work already invested still warms the next request.
type computed[K comparable, V any] struct {
	*sieveCache[K, V]
	hit, miss *metrics.Counter // this cache's swrec_engine counters
	budget    time.Duration    // bounds each flight; 0 = none

	mu      sync.Mutex
	flights map[K]*flight[V]
}

// flight is one in-progress computation; done is closed after val and
// err are set and the key is freed.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newComputed[K comparable, V any](capacity int, budget time.Duration, hit, miss *metrics.Counter) *computed[K, V] {
	return &computed[K, V]{sieveCache: newSieve[K, V](capacity), hit: hit, miss: miss, budget: budget}
}

// lookup returns the cached value, counting a hit. A miss is counted by
// the fill that follows it.
//
//swrec:hotpath
func (c *computed[K, V]) lookup(k K) (V, bool) {
	v, ok := c.get(k)
	if ok {
		c.hit.Add(1)
	}
	return v, ok
}

// fill computes the value of a key lookup just missed: it counts the
// miss, then starts the key's flight or joins the one in progress
// (counting flight_shared). The leader runs compute under flightCtx and
// caches a value computed without error before it frees the key, so a
// caller arriving after the flight finds the cache filled. This caller
// waits until the flight finishes or ctx is done; on detach the error
// is ctx.Err() and the value is zero.
func (c *computed[K, V]) fill(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	c.miss.Add(1)
	c.mu.Lock()
	if c.flights == nil {
		c.flights = make(map[K]*flight[V])
	}
	f, joined := c.flights[key]
	if !joined {
		f = &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		go func() {
			fctx, cancel := flightCtx(c.budget)
			defer cancel()
			val, err := compute(fctx)
			if err == nil {
				c.add(key, val)
			}
			f.val, f.err = val, err
			c.mu.Lock()
			delete(c.flights, key)
			c.mu.Unlock()
			close(f.done)
		}()
	}
	c.mu.Unlock()
	if joined {
		flightSharedStat.Add(1)
	}

	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// flightCtx is the context a flight computes under: independent of any
// caller's deadline, bounded by budget when one is configured.
func flightCtx(budget time.Duration) (context.Context, context.CancelFunc) {
	//nolint:ctxflow -- the flight context is detached by design: the leader keeps warming the cache after every caller detaches (ComputeBudget is the bound)
	ctx := context.Background()
	if budget > 0 {
		return context.WithTimeout(ctx, budget)
	}
	return ctx, func() {}
}
