package metrics

import (
	"encoding/json"
	"expvar"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newMap is a Map that is not published, so each test can have its own.
func newMap() *Map { return &Map{m: new(expvar.Map).Init()} }

func value(t *testing.T, m *Map, key string) int64 {
	t.Helper()
	v, ok := m.m.Get(key).(*expvar.Int)
	if !ok {
		t.Fatalf("key %q holds %T, want *expvar.Int", key, m.m.Get(key))
	}
	return v.Value()
}

// A counter's key is absent until the first Add, and every Add after it
// lands in the map's own *expvar.Int.
func TestCounterAddsToItsMap(t *testing.T) {
	m := newMap()
	c := m.Counter("hits")
	if m.m.Get("hits") != nil {
		t.Fatal("key published before the first Add")
	}
	c.Add(2)
	first := m.m.Get("hits")
	c.Add(3)
	if got := value(t, m, "hits"); got != 5 {
		t.Fatalf("hits = %d, want 5", got)
	}
	if m.m.Get("hits") != first {
		t.Fatal("the map's value was replaced after the first Add")
	}
	m.m.Add("hits", 1) // a Map.Add beside the handle counts into the same value
	c.Add(1)
	if got := value(t, m, "hits"); got != 7 {
		t.Fatalf("hits = %d, want 7", got)
	}
}

// Goroutines racing to the first Add of one key lose no count: the first
// Add goes through Map.Add, which creates the key once.
func TestCounterFirstAddRace(t *testing.T) {
	const goroutines, adds = 8, 1000
	for round := 0; round < 20; round++ {
		m := newMap()
		c := m.Counter("n")
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < adds; i++ {
					c.Add(1)
				}
			}()
		}
		wg.Wait()
		if got := value(t, m, "n"); got != goroutines*adds {
			t.Fatalf("round %d: n = %d, want %d", round, got, goroutines*adds)
		}
	}
}

// A key set to something other than an Int keeps going through the map,
// which leaves it alone, as Map.Add does.
func TestCounterOnNonIntKey(t *testing.T) {
	m := newMap()
	s := new(expvar.String)
	s.Set("x")
	m.m.Set("k", s)
	c := m.Counter("k")
	c.Add(1)
	c.Add(1)
	if m.m.Get("k") != s || s.Value() != "x" {
		t.Fatalf("k = %v, want the string left alone", m.m.Get("k"))
	}
}

// A gauge's key is published at 0 before its first Set.
func TestGaugePublishedBeforeSet(t *testing.T) {
	m := newMap()
	g := m.Gauge("last")
	if got := value(t, m, "last"); got != 0 {
		t.Fatalf("last = %d before any Set, want 0", got)
	}
	g.Set(7)
	g.Set(5)
	if got := value(t, m, "last"); got != 5 {
		t.Fatalf("last = %d, want 5", got)
	}
}

// After the first Add, a count allocates nothing.
func TestCounterAddAllocatesNothing(t *testing.T) {
	m := newMap()
	c := m.Counter("n")
	c.Add(1)
	if allocs := testing.AllocsPerRun(100, func() { c.Add(1) }); allocs != 0 {
		t.Fatalf("Add allocates %v times", allocs)
	}
}

// read is the body Handler writes for maps, decoded: which fails on
// anything but an object of flat objects of numbers.
func read(t *testing.T, published map[string]*Map) map[string]map[string]float64 {
	t.Helper()
	b, err := json.Marshal(values(published))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]map[string]float64
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatalf("body: %v\n%s", err, b)
	}
	return body
}

// A published histogram's keys appear once its count is not 0, and read
// its count, and its quantiles and maximum in microseconds.
func TestPublishedKeys(t *testing.T) {
	m := newMap()
	h := m.Histogram("ep")
	if got := read(t, map[string]*Map{"swrec_test": m})["swrec_test"]; len(got) != 0 {
		t.Fatalf("keys before the first Record: %v", got)
	}
	h.Record(2 * time.Millisecond)
	h.Record(0)
	want := map[string]float64{"ep_requests": 2, "ep_p50_us": 0, "ep_p90_us": 2000,
		"ep_p99_us": 2000, "ep_p999_us": 2000, "ep_max_us": 2000}
	if got := read(t, map[string]*Map{"swrec_test": m})["swrec_test"]; !maps.Equal(got, want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
}

// Totals read the count and the nanoseconds of every histogram of the
// other map, from the same read of them that its own keys come from.
func TestTotals(t *testing.T) {
	api, classes := newMap(), newMap()
	both := map[string]*Map{"swrec_api": api, "swrec_http": classes}
	api.Totals(classes)
	a, b := classes.Histogram("a"), classes.Histogram("b")
	if got := read(t, both)["swrec_api"]; len(got) != 0 {
		t.Fatalf("totals before the first Record: %v", got)
	}
	a.Record(3 * time.Millisecond)
	b.Record(time.Millisecond)
	b.Record(5)
	body := read(t, both)
	want := map[string]float64{"requests": 3, "request_ns": 4000005}
	if got := body["swrec_api"]; !maps.Equal(got, want) {
		t.Fatalf("swrec_api = %v, want %v", got, want)
	}
	if n := body["swrec_http"]["a_requests"] + body["swrec_http"]["b_requests"]; n != 3 {
		t.Fatalf("classes count %v requests, want 3", n)
	}
}

// Handler serves every map NewMap published, in name order, and nothing
// else: no memstats, no cmdline.
func TestHandlerServesPublishedMaps(t *testing.T) {
	NewMap("test_z").Counter("n").Add(1)
	NewMap("test_a")
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var body map[string]map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body: %v\n%s", err, rec.Body)
	}
	if _, a := body["swrec_test_a"]; !a || body["swrec_test_z"]["n"] != 1 || len(body) != 2 {
		t.Fatalf("maps %v, want swrec_test_a and swrec_test_z", body)
	}
	if i, j := strings.Index(rec.Body.String(), "swrec_test_a"), strings.Index(rec.Body.String(), "swrec_test_z"); i > j {
		t.Fatalf("maps out of name order:\n%s", rec.Body)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	m := newMap()
	c := m.Counter("requests")
	b.Run("handle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.m.Add("requests", 1)
		}
	})
}
