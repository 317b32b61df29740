package engine

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity, mutex-guarded LRU map. The engine keeps
// one per snapshot and per cached artifact kind (synthesized
// neighborhoods, recommendation lists, encoded response bodies), so
// eviction pressure in one kind never displaces another. Capacity is in
// units of entry weight: the per-agent caches weigh every entry 1 (add),
// the body cache weighs an entry by its bytes (addWeighted). The map
// grows with its contents: three are built on every publish, most of
// them to hold far less than their capacity.
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	used  int        // total weight of the live entries
	order *list.List // front = most recent; values are *lruEntry[K, V]
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key    K
	val    V
	weight int
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	if capacity <= 0 {
		capacity = 1
	}
	return &lruCache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// get returns the cached value and marks it most recently used.
//
//swrec:hotpath
func (c *lruCache[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts or refreshes a value of weight 1, evicting the least
// recently used entry when over capacity.
func (c *lruCache[K, V]) add(k K, v V) { c.addWeighted(k, v, 1) }

// addWeighted inserts or refreshes a value of the given weight, evicting
// least recently used entries until the total weight fits the capacity
// again. A value heavier than the whole capacity is not kept.
func (c *lruCache[K, V]) addWeighted(k K, v V, weight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		e := el.Value.(*lruEntry[K, V])
		c.used += weight - e.weight
		e.val, e.weight = v, weight
		c.order.MoveToFront(el)
	} else {
		c.items[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v, weight: weight})
		c.used += weight
	}
	for c.used > c.cap {
		el := c.order.Back()
		e := c.order.Remove(el).(*lruEntry[K, V])
		delete(c.items, e.key)
		c.used -= e.weight
	}
}

// kv is one cache entry as reported by entries.
type kv[K comparable, V any] struct {
	key K
	val V
}

// entries snapshots the cache contents in least-to-most recently used
// order, so replaying them through add into a fresh cache reproduces the
// recency ordering — the epoch-swap carry-over path.
func (c *lruCache[K, V]) entries() []kv[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]kv[K, V], 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry[K, V])
		out = append(out, kv[K, V]{key: e.key, val: e.val})
	}
	return out
}

// len reports the live entry count.
func (c *lruCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
