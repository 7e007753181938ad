package service

import (
	"container/list"
	"sync"
)

// resultCache is a bounded LRU over canonical result bytes, keyed by the
// job identity string (circuit|algo|procs|seed|netpart). Deterministic routing
// is what makes it sound: the cached bytes for a key are byte-identical
// to what recomputing the job would produce, so eviction only ever costs
// time, never correctness.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   string
	bytes []byte
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 256
	}
	return &resultCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached bytes for key, counting a hit or miss.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).bytes, true
}

// put stores bytes under key, evicting the least recently used entry
// when full. Storing an existing key refreshes its recency; the bytes
// are identical by determinism, so which copy survives is immaterial.
func (c *resultCache) put(key string, bytes []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).bytes = bytes
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, bytes: bytes})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// counters returns (hits, misses, entries, evictions).
func (c *resultCache) counters() (int64, int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, int64(c.order.Len()), c.evictions
}
