// Package metrics holds counters a request bumps on every call, resolved
// once instead of looked up per call.
//
// An expvar.Map's Add finds its key in a sync.Map on every call: the key
// is hashed through an interface and compared, which costs more than the
// atomic add it leads to. A Counter names the key once and keeps the
// *expvar.Int the map holds for it, so after the first Add a count is one
// atomic add. The map stays the only store: the key appears in the map
// (and on /v1/metrics) at the first Add, as it would under Map.Add, and a
// reader of the map sees every count.
package metrics

import (
	"expvar"
	"sync/atomic"
)

// Counter is one key of an expvar.Map. The zero value is not usable;
// build one with NewCounter. A Counter must not be copied after its
// first Add.
type Counter struct {
	m   *expvar.Map
	key string
	v   atomic.Pointer[expvar.Int] // the map's value for key, once seen
}

// NewCounter names key of m. It publishes nothing: the key appears in m
// at the first Add.
func NewCounter(m *expvar.Map, key string) Counter {
	return Counter{m: m, key: key}
}

// Add adds delta to the counter.
//
//swrec:hotpath
func (c *Counter) Add(delta int64) {
	if v := c.v.Load(); v != nil {
		v.Add(delta)
		return
	}
	c.resolve(delta)
}

// resolve makes the first Add through the map, which creates the key
// exactly once however many goroutines race to it, then keeps the value
// the map settled on. A key something else set to a non-Int stays
// unresolved and every Add goes through the map, as Map.Add would.
func (c *Counter) resolve(delta int64) {
	c.m.Add(c.key, delta)
	if v, ok := c.m.Get(c.key).(*expvar.Int); ok {
		c.v.Store(v)
	}
}
