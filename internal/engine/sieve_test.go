package engine

import (
	"fmt"
	"math/rand"
	"net/url"
	"runtime"
	"slices"
	"testing"

	"swrec/internal/datagen"
)

// warmURL is one distinct GET of a warm-read-like mix, as net/http
// parses it (an escaped agent URI leaves a raw path beside the path),
// with the body size the API layer would store for it.
type warmURL struct {
	path, rawPath, rawQuery string
	size                    int
}

// warmReadURLs draws n requests the way the repo benchmark's warm-read
// workload does: agent and product by Zipf(1.1) rank, endpoint by the
// 60/15/10/7/8 mix, each endpoint's body at its mean size measured on
// warm-read. It returns the distinct URLs and the order they are asked.
func warmReadURLs(seed int64, agents, products, n int) ([]warmURL, []int32) {
	agentRank := datagen.NewZipf(seed, 1.1, agents)
	productRank := datagen.NewZipf(seed+1, 1.1, products)
	var urls []warmURL
	index := make(map[warmURL]int32)
	seq := make([]int32, n)
	for i := range seq {
		id := fmt.Sprintf("http://swrec.example/people/a%d", agentRank.Pick(uint64(i)))
		u := warmURL{
			path:    "/v1/agents/" + id,
			rawPath: "/v1/agents/" + url.PathEscape(id),
		}
		switch r := datagen.Uniform01(seed+2, uint64(i)); {
		case r < 0.60:
			u.path, u.rawPath, u.rawQuery, u.size = u.path+"/recommendations", u.rawPath+"/recommendations", "n=10", 1656
		case r < 0.75:
			u.path, u.rawPath, u.rawQuery, u.size = u.path+"/neighbors", u.rawPath+"/neighbors", "n=25", 4991
		case r < 0.85:
			u.path, u.rawPath, u.rawQuery, u.size = u.path+"/profile", u.rawPath+"/profile", "n=15", 1680
		case r < 0.92:
			u.size = 2851
		default:
			u = warmURL{path: fmt.Sprintf("/v1/products/urn:isbn:%013d", 9780000000000+productRank.Pick(uint64(i))), size: 274}
		}
		j, ok := index[u]
		if !ok {
			j = int32(len(urls))
			index[u] = j
			urls = append(urls, u)
		}
		seq[i] = j
	}
	return urls, seq
}

// TestBodyCacheKeepsZipfHotSet replays a warm-read-like trace through
// Body and StoreBody — a miss stores the answer, as the API layer does —
// and requires the hit ratio SIEVE reaches at bodyBudget. Move-to-front
// LRU keeps ~0.88 of this trace, so the bound fails it.
func TestBodyCacheKeepsZipfHotSet(t *testing.T) {
	e, err := New(testCommunity(t, 20, 30), testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	urls, seq := warmReadURLs(1117, 2000, 9953, 1<<17)
	body := make([]byte, 5000) // every entry shares it: only the length is charged
	var hits, asks int
	// The first pass fills the cache; the second and third are measured.
	for pass := 0; pass < 3; pass++ {
		for _, j := range seq {
			u := urls[j]
			_, _, ok := snap.Body(u.path, u.rawPath, u.rawQuery)
			if !ok {
				snap.StoreBody(u.path, u.rawPath, u.rawQuery, 1, body[:u.size])
			}
			if pass > 0 {
				asks++
				if ok {
					hits++
				}
			}
		}
	}
	ratio := float64(hits) / float64(asks)
	t.Logf("%d distinct URLs, hit ratio %.4f", len(urls), ratio)
	if ratio < 0.90 {
		t.Fatalf("body hit ratio %.4f on a Zipf(1.1) trace, want >= 0.90", ratio)
	}
}

// TestBodyCacheResistsOneOffScan: one agent asked under unboundedly many
// spellings (a fresh query parameter each time) must not flush the
// bodies readers keep returning to. 100 hot entries are read once a
// round, with 50 never-repeated spellings stored after each read, so
// each round stores well over a budget of one-off entries. Move-to-front
// LRU evicts every hot entry before it is read again (0 hits).
func TestBodyCacheResistsOneOffScan(t *testing.T) {
	e, err := New(testCommunity(t, 20, 30), testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	const hot, fresh, rounds = 100, 50, 10
	body := make([]byte, 2000)
	hotPath := func(i int) string { return fmt.Sprintf("/v1/agents/a%d/recommendations", i) }
	for i := 0; i < hot; i++ {
		snap.StoreBody(hotPath(i), "", "n=10", 1, body)
	}
	hits, asks, spelling := 0, 0, 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < hot; i++ {
			_, _, ok := snap.Body(hotPath(i), "", "n=10")
			if !ok {
				snap.StoreBody(hotPath(i), "", "n=10", 1, body)
			}
			if round > 0 {
				asks++
				if ok {
					hits++
				}
			}
			for j := 0; j < fresh; j++ {
				spelling++
				snap.StoreBody("/v1/agents/a0/recommendations", "", fmt.Sprintf("n=10&fresh=%d", spelling), 1, body)
			}
		}
	}
	t.Logf("hot reads after round 1: %d of %d hit", hits, asks)
	if hits*2 < asks {
		t.Fatalf("hot reads hit %d of %d times under a scan of one-off spellings, want >= half", hits, asks)
	}
}

// checkCache verifies the cache's structural invariants against want,
// the keys in the order they were first inserted (evicted ones
// included): the live weight adds up and fits, the queue and the map
// hold the same entries, in insertion order, linked both ways, and the
// hand points at a live entry or nowhere. It returns want without the
// keys that are no longer live.
func checkCache(t *testing.T, step string, c *sieveCache[int, int], want []int) []int {
	t.Helper()
	used, n := 0, 0
	var prev *sieveEntry[int, int]
	var order []int
	for e := c.oldest; e != nil; e = e.newer {
		if e.older != prev {
			t.Fatalf("%s: entry %d links back to the wrong entry", step, e.key)
		}
		if c.items[e.key] != e {
			t.Fatalf("%s: queued entry %d is not the map's", step, e.key)
		}
		used += e.weight
		n++
		order = append(order, e.key)
		prev = e
	}
	if c.newest != prev {
		t.Fatalf("%s: newest is not the queue's last entry", step)
	}
	if used != c.used || c.used > c.cap {
		t.Fatalf("%s: used=%d, live weights sum to %d, cap %d", step, c.used, used, c.cap)
	}
	if n != c.len() || n != len(c.items) {
		t.Fatalf("%s: queue holds %d entries, len() %d, map %d", step, n, c.len(), len(c.items))
	}
	if c.hand != nil && c.items[c.hand.key] != c.hand {
		t.Fatalf("%s: the hand points at removed entry %d", step, c.hand.key)
	}
	live := slices.DeleteFunc(want, func(k int) bool { _, ok := c.items[k]; return !ok })
	var got []int
	for _, e := range c.entries() {
		got = append(got, e.key)
	}
	if !slices.Equal(got, order) || !slices.Equal(got, live) {
		t.Fatalf("%s: entries() %v, queue %v, insertion order %v", step, got, order, live)
	}
	return live
}

// TestCacheInvariantsUnderRandomMix drives one cache with a seeded mix
// of add, addWeighted (weights up to twice the capacity), get and drop,
// checking the invariants after every operation, then replays entries()
// into a fresh cache and requires the same order back.
func TestCacheInvariantsUnderRandomMix(t *testing.T) {
	const capacity, keys = 40, 64
	rng := rand.New(rand.NewSource(1117))
	c := newSieve[int, int](capacity)
	var order []int // keys in first-insertion order
	vals := make(map[int]int)
	for i := 0; i < 20000; i++ {
		k := rng.Intn(keys)
		_, existed := c.items[k]
		var step string
		switch op := rng.Intn(10); {
		case op < 3:
			step = fmt.Sprintf("op %d add(%d)", i, k)
			c.add(k, i)
			vals[k] = i
			if _, ok := c.items[k]; !ok && !existed {
				t.Fatalf("%s: a new entry was its own victim", step)
			}
		case op < 6:
			w := 1 + rng.Intn(2*capacity)
			step = fmt.Sprintf("op %d addWeighted(%d, w=%d)", i, k, w)
			c.addWeighted(k, i, w)
			vals[k] = i
			if _, ok := c.items[k]; ok && w > capacity || !ok && !existed && w <= capacity {
				t.Fatalf("%s: kept=%v", step, ok)
			}
		case op < 9:
			step = fmt.Sprintf("op %d get(%d)", i, k)
			if v, ok := c.get(k); ok != existed || ok && v != vals[k] {
				t.Fatalf("%s: got (%d, %v), want (%d, %v)", step, v, ok, vals[k], existed)
			}
		default:
			step = fmt.Sprintf("op %d drop(%d)", i, k)
			c.drop(k)
		}
		if _, ok := c.items[k]; ok && !existed {
			order = append(order, k)
		}
		order = checkCache(t, step, c, order)
	}

	replay := newSieve[int, int](capacity)
	for _, e := range c.entries() {
		replay.add(e.key, e.val)
	}
	if got, want := replay.entries(), c.entries(); !slices.Equal(got, want) {
		t.Fatalf("replayed entries() = %v, want %v", got, want)
	}
	for e := replay.oldest; e != nil; e = e.newer {
		if e.visited {
			t.Fatalf("replayed entry %d starts visited", e.key)
		}
	}
}

// TestBodyEntryChargeBoundsHeap: bodyEntryOverhead is a bound on what
// an entry costs the heap beyond its key and body — the cache entry,
// its share of the map, and the allocator's rounding of the key copies
// and the body — measured at warm-read's mean /recommendations size.
func TestBodyEntryChargeBoundsHeap(t *testing.T) {
	e, err := New(testCommunity(t, 20, 30), testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	const n, size = 3000, 1656
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	payload := 0
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("http://swrec.example/people/a%d", i)
		path := "/v1/agents/" + id + "/recommendations"
		rawPath := "/v1/agents/" + url.PathEscape(id) + "/recommendations"
		snap.StoreBody(path, rawPath, "n=10", 1, make([]byte, size))
		payload += len(path) + len(rawPath) + len("n=10") + size
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if got := snap.bodies.len(); got != n {
		t.Fatalf("cache holds %d of %d entries; the measurement needs them all", got, n)
	}
	perEntry := float64(ms.HeapAlloc-before) / n
	over := perEntry - float64(payload)/n
	t.Logf("heap per entry %.0f B, %.0f B above key + body", perEntry, over)
	if over > bodyEntryOverhead {
		t.Fatalf("an entry costs %.0f B above its key and body, more than the %d B charged", over, bodyEntryOverhead)
	}
	runtime.KeepAlive(snap)
}
