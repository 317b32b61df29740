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
	"encoding/json"
	"expvar"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Map is one published expvar map of numeric keys, and the histograms
// and totals that Handler summarises into it.
type Map struct {
	m      *expvar.Map
	hists  []*Histogram
	totals *Map // the map whose histograms m totals, or nil
}

// registry is every Map NewMap published, by its published name. Its lock
// also covers the maps' histograms and totals.
var registry = struct {
	sync.Mutex
	maps map[string]*Map
}{maps: make(map[string]*Map)}

// NewMap publishes the map "swrec_"+name. Like expvar.NewMap it panics if
// the name is already published, so each Map is made once, at package
// initialisation.
func NewMap(name string) *Map {
	m := &Map{m: expvar.NewMap("swrec_" + name)}
	registry.Lock()
	defer registry.Unlock()
	registry.maps["swrec_"+name] = m
	return m
}

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

// Histogram returns a latency histogram whose Summary Handler writes into
// m once its count is not 0: name_requests is the count, and
// name_p50_us, _p90_us, _p99_us, _p999_us and _max_us are the quantiles
// and the maximum in microseconds.
func (m *Map) Histogram(name string) *Histogram {
	h := &Histogram{name: name}
	registry.Lock()
	defer registry.Unlock()
	m.hists = append(m.hists, h)
	return h
}

// Totals makes Handler write into m, once of's histograms hold an
// observation, requests, their summed count, and request_ns, their
// summed nanoseconds.
func (m *Map) Totals(of *Map) {
	registry.Lock()
	defer registry.Unlock()
	m.totals = of
}

// Handler serves the /v1/metrics body: every published Map, in name
// order, as one JSON object of flat objects of numbers. Each request
// reads each histogram once.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		registry.Lock()
		v := values(registry.maps)
		registry.Unlock()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(v)
	})
}

// values are the keys and values of every map, by name: its expvar map's,
// the summary of each histogram whose count is not 0, and its totals,
// summed from the same reads.
func values(maps map[string]*Map) map[string]map[string]any {
	all := make(map[string]map[string]any, len(maps))
	sums := make(map[*Map]Summary, len(maps)) // the count and sum of each map's histograms
	for name, m := range maps {
		v := make(map[string]any)
		m.m.Do(func(kv expvar.KeyValue) { v[kv.Key] = json.RawMessage(kv.Value.String()) })
		for _, h := range m.hists {
			s, sum := h.Summary(), sums[m]
			sums[m] = Summary{Count: sum.Count + s.Count, Sum: sum.Sum + s.Sum}
			if prefix := h.name + "_"; s.Count > 0 {
				v[prefix+"requests"] = s.Count
				v[prefix+"p50_us"] = micros(s.P50)
				v[prefix+"p90_us"] = micros(s.P90)
				v[prefix+"p99_us"] = micros(s.P99)
				v[prefix+"p999_us"] = micros(s.P999)
				v[prefix+"max_us"] = micros(s.Max)
			}
		}
		all[name] = v
	}
	for name, m := range maps {
		if sum := sums[m.totals]; sum.Count > 0 {
			all[name]["requests"], all[name]["request_ns"] = sum.Count, int64(sum.Sum)
		}
	}
	return all
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

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
