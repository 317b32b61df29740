package engine

import (
	"context"
	"sync"
)

// flightKey identifies one deduplicatable computation: the kind plus the
// key components that kind uses (zero for the rest). A fixed-size
// comparable struct, so starting or joining a flight allocates and
// hashes no strings — the per-request flight keys used to be the
// engine's last fmt.Sprintf on the serving path.
type flightKey struct {
	kind    byte
	agent   int32 // agent ordinal (peers, recs)
	n       int32 // answer size (recs)
	pipe    pipeKey
	content contKey
}

// flightKey kinds.
const (
	flightPeers      = 'p'
	flightRecs       = 'r'
	flightPopularity = 'o'
)

// flightGroup deduplicates concurrent computations of the same key: the
// first caller starts fn, later callers for the same key share the
// in-flight result. This is the classic singleflight pattern (stdlib has
// no exported version, and the module is dependency-free), with one
// deadline-era twist: fn runs on its own goroutine under a *flight*
// context independent of any single caller, and every caller — including
// the one that started the flight — waits with a select against its own
// request context. A caller whose deadline fires detaches immediately
// with ctx.Err() while the computation keeps running and completes the
// cache fill, so the work already invested still warms the next request.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

type flightCall struct {
	done chan struct{} // closed after val/err are set and the key is freed
	val  any
	err  error
}

// noCancel is the flight-context factory when no compute budget applies.
func noCancel() (context.Context, context.CancelFunc) {
	return context.Background(), func() {} //nolint:ctxflow -- the flight context is detached by design: the leader outlives any single caller and completes the cache fill
}

// doCtx runs fn once per concurrent set of callers sharing key. The
// leader goroutine evaluates fn under a fresh context from newCtx (the
// compute budget); each caller blocks until the flight finishes or its
// own ctx is done, whichever comes first. shared reports whether this
// caller joined a flight another caller started. On detach the returned
// error is ctx.Err() and val is nil.
func (g *flightGroup) doCtx(ctx context.Context, key flightKey, newCtx func() (context.Context, context.CancelFunc), fn func(context.Context) (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[flightKey]*flightCall)
	}
	c, joined := g.m[key]
	if !joined {
		c = &flightCall{done: make(chan struct{})}
		g.m[key] = c
		go func() {
			fctx, cancel := newCtx()
			defer cancel()
			val, err := fn(fctx)
			// Publish the result before freeing the key: a caller arriving
			// after the delete must start a fresh flight, not read a
			// half-written one.
			c.val, c.err = val, err
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(c.done)
		}()
	}
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, c.err, joined
	case <-ctx.Done():
		return nil, ctx.Err(), joined
	}
}

// do is doCtx without caller cancellation or a compute budget: it always
// waits for the flight to finish.
func (g *flightGroup) do(key flightKey, fn func() (any, error)) (val any, err error, shared bool) {
	return g.doCtx(context.Background(), key, noCancel, func(context.Context) (any, error) { return fn() })
}
