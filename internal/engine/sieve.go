package engine

import "sync"

// sieveCache is a fixed-capacity, mutex-guarded map with SIEVE eviction
// (Zhang et al., "SIEVE is Simpler than LRU", NSDI '24). The engine keeps
// one per snapshot and per cached artifact kind (synthesized
// neighborhoods, recommendation lists, encoded response bodies), so
// eviction pressure in one kind never displaces another. Capacity is in
// units of entry weight: the per-agent caches weigh every entry 1 (add),
// the body cache weighs an entry by its bytes (addWeighted). The map
// grows with its contents: three are built on every publish, most of
// them to hold far less than their capacity.
//
// Entries sit in one queue in insertion order, each with a visited bit.
// A hit sets the bit and moves nothing. To make room, a hand walks the
// queue from the oldest entry toward the newest, resuming where it last
// stopped and wrapping at the newest: it clears every set bit it passes
// and evicts the first entry whose bit is already clear. An entry asked
// for again between two passes of the hand survives them, while a burst
// of keys read once (one agent under many URL spellings) is evicted
// before anything the readers keep returning to.
type sieveCache[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	used   int // total weight of the live entries
	oldest *sieveEntry[K, V]
	newest *sieveEntry[K, V]
	hand   *sieveEntry[K, V] // next eviction candidate; nil = start at oldest
	items  map[K]*sieveEntry[K, V]
}

type sieveEntry[K comparable, V any] struct {
	key     K
	val     V
	weight  int
	visited bool
	// older and newer link the insertion-ordered queue.
	older, newer *sieveEntry[K, V]
}

func newSieve[K comparable, V any](capacity int) *sieveCache[K, V] {
	if capacity <= 0 {
		capacity = 1
	}
	return &sieveCache[K, V]{cap: capacity, items: make(map[K]*sieveEntry[K, V])}
}

// get returns the cached value and marks it visited.
//
//swrec:hotpath
func (c *sieveCache[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		e.visited = true
		return e.val, true
	}
	var zero V
	return zero, false
}

// add inserts or refreshes a value of weight 1, evicting when over
// capacity.
func (c *sieveCache[K, V]) add(k K, v V) { c.addWeighted(k, v, 1) }

// addWeighted inserts a value of the given weight as the newest entry,
// evicting first until it fits, so a new entry is never its own victim
// and a computed value is there for the next lookup. A refresh of an
// existing key updates it in place, marks it visited, and evicts if it
// grew. A value heavier than the whole capacity is not kept (a refresh
// with one drops the key).
func (c *sieveCache[K, V]) addWeighted(k K, v V, weight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[k]
	switch {
	case weight > c.cap:
		if ok {
			c.remove(e)
		}
	case ok:
		c.used += weight - e.weight
		e.val, e.weight, e.visited = v, weight, true
		for c.used > c.cap {
			c.evict()
		}
	default:
		for c.used+weight > c.cap {
			c.evict()
		}
		e = &sieveEntry[K, V]{key: k, val: v, weight: weight, older: c.newest}
		if c.newest != nil {
			c.newest.newer = e
		} else {
			c.oldest = e
		}
		c.newest = e
		c.items[k] = e
		c.used += weight
	}
}

// evict advances the hand past visited entries, clearing their bits,
// and removes the first unvisited one.
func (c *sieveCache[K, V]) evict() {
	h := c.hand
	if h == nil {
		h = c.oldest
	}
	for h.visited {
		h.visited = false
		if h = h.newer; h == nil {
			h = c.oldest
		}
	}
	c.hand = h
	c.remove(h)
}

// remove unlinks e, moving the hand to the next newer entry if it
// pointed at e.
func (c *sieveCache[K, V]) remove(e *sieveEntry[K, V]) {
	if c.hand == e {
		c.hand = e.newer
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
	e.older, e.newer = nil, nil
	delete(c.items, e.key)
	c.used -= e.weight
}

// kv is one cache entry as reported by entries.
type kv[K comparable, V any] struct {
	key K
	val V
}

// entries snapshots the cache contents oldest-inserted first, so
// replaying them through add into a fresh cache reproduces the
// insertion order — the epoch-swap carry-over path. A replayed entry
// starts unvisited.
func (c *sieveCache[K, V]) entries() []kv[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]kv[K, V], 0, len(c.items))
	for e := c.oldest; e != nil; e = e.newer {
		out = append(out, kv[K, V]{key: e.key, val: e.val})
	}
	return out
}

// len reports the live entry count.
func (c *sieveCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
