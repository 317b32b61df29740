package metrics

import (
	"expvar"
	"sync"
	"testing"
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
