// Package metrics is the one package that touches expvar: every metric
// is a key of a Map published as "swrec_<name>", counted through a
// Counter or summarised from a Histogram, and served by Handler.
//
// An expvar.Map's Add finds its key in a sync.Map on every call, which
// costs more than the atomic add it leads to. A Counter names its key
// once and keeps the *expvar.Int the map holds for it, so after the
// first Add a count is one atomic add. The map stays the only store: the
// key appears in it at the first Add, as under Map.Add.
package metrics

import (
	"expvar"
	"net/http"
	"sync/atomic"
)

// Map is one published expvar map of numeric keys.
type Map struct{ m *expvar.Map }

// NewMap publishes the map "swrec_"+name. Like expvar.NewMap it panics if
// the name is already published, so each Map is made once, at package
// initialisation.
func NewMap(name string) *Map { return &Map{m: expvar.NewMap("swrec_" + name)} }

// Counter names key of m. It publishes nothing: the key appears in m at
// the first Add.
func (m *Map) Counter(key string) *Counter { return &Counter{m: m.m, key: key} }

// Gauge names key of m and publishes it now, at 0, for a value that is
// Set rather than counted and that a reader expects before its first Set.
func (m *Map) Gauge(key string) *Counter {
	c := m.Counter(key)
	c.Add(0)
	return c
}

// Handler serves every published variable as one JSON object: the
// /v1/metrics body.
func Handler() http.Handler { return expvar.Handler() }

// Counter is one integer key of a Map. Build one with Map.Counter or
// Map.Gauge and keep the pointer.
type Counter struct {
	m   *expvar.Map
	key string
	v   atomic.Pointer[expvar.Int] // the map's value for key, once seen
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

// Set stores value in a counter made by Map.Gauge.
func (c *Counter) Set(value int64) { c.v.Load().Set(value) }

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
