// Package lru is a small generic least-recently-used map from string key to
// value, shared by the service's caches and the compiled-workload cache.
package lru

import (
	"container/list"
	"fmt"
)

// entry pairs a cache key with its value inside the recency list.
type entry[V any] struct {
	key string
	val V
}

// Cache is a non-thread-safe least-recently-used map from string key to V;
// callers hold their own lock. Get promotes, Add inserts at the front and
// evicts from the back past capacity.
type Cache[V any] struct {
	cap   int
	order *list.List               // front = most recent; values are entry[V]
	byKey map[string]*list.Element // key → element
	// OnDrop, when set, sees every value that leaves the cache: evicted
	// past capacity or replaced under its key. The service's cell cache
	// keeps its byte gauge with it.
	OnDrop func(V)
}

// New returns an empty cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	// A non-positive capacity is a construction bug, not a runtime
	// condition: Add would evict the entry it just inserted and every Get
	// would miss silently. Fail loudly instead.
	if capacity <= 0 {
		panic(fmt.Sprintf("lru: capacity must be positive, got %d", capacity))
	}
	return &Cache[V]{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element, capacity)}
}

// Get returns the value under key and promotes it to most recent.
func (c *Cache[V]) Get(key string) (V, bool) {
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
	}
	return c.Peek(key)
}

// Peek returns the value without promoting it — for read-only listings
// that must not perturb eviction order.
func (c *Cache[V]) Peek(key string) (V, bool) {
	if el, ok := c.byKey[key]; ok {
		return el.Value.(entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts (or refreshes) key and returns how many entries were
// evicted past capacity, so callers can feed eviction counters.
func (c *Cache[V]) Add(key string, v V) int {
	if el, ok := c.byKey[key]; ok {
		if c.OnDrop != nil {
			c.OnDrop(el.Value.(entry[V]).val)
		}
		el.Value = entry[V]{key: key, val: v}
		c.order.MoveToFront(el)
		return 0
	}
	c.byKey[key] = c.order.PushFront(entry[V]{key: key, val: v})
	evicted := 0
	for c.order.Len() > c.cap {
		c.RemoveOldest()
		evicted++
	}
	return evicted
}

// RemoveOldest drops the least recently used entry, if any, through
// OnDrop: a cache bounded by a size of its own, not only by its count,
// evicts with it.
func (c *Cache[V]) RemoveOldest() {
	back := c.order.Back()
	if back == nil {
		return
	}
	e := c.order.Remove(back).(entry[V])
	delete(c.byKey, e.key)
	if c.OnDrop != nil {
		c.OnDrop(e.val)
	}
}

// Len returns the number of entries.
func (c *Cache[V]) Len() int { return c.order.Len() }

// Keys returns the keys from most to least recently used (for tests and
// the jobs listing).
func (c *Cache[V]) Keys() []string {
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(entry[V]).key)
	}
	return out
}
