package service

import (
	"container/list"
	"sync"
)

// lru is a bounded LRU map with hit/miss/eviction counters: the result
// cache (canonical bytes by job key, circuit|algo|procs|seed|netpart) and
// the circuit cache (loaded circuits by circuit identity). Determinism makes
// both sound: a cached value is identical to what recomputing it would
// produce, so eviction only ever costs time, never correctness.
type lru[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses, evictions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached value for key, counting a hit or miss.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key, evicting the least recently used entry
// when full. Storing an existing key refreshes its recency; the values
// are identical by determinism, so which copy survives is immaterial.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

// counters returns (hits, misses, entries, evictions).
func (c *lru[V]) counters() (int64, int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, int64(c.order.Len()), c.evictions
}
