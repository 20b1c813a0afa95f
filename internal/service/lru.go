package service

import (
	"container/list"
	"fmt"
)

// lruEntry pairs a cache key with its value inside the recency list.
type lruEntry[V any] struct {
	key string
	val V
}

// lruCache is a non-thread-safe least-recently-used map from string key to
// V; callers hold the manager lock. Get promotes, Add inserts at the front
// and evicts from the back past capacity. The manager keeps two instances:
// finished jobs by spec hash, and cell results by cell hash.
type lruCache[V any] struct {
	cap   int
	order *list.List               // front = most recent; values are lruEntry[V]
	byKey map[string]*list.Element // key → element
	// onDrop, when set, sees every value that leaves the cache: evicted
	// past capacity or replaced under its key. The cell cache keeps its
	// byte gauge with it.
	onDrop func(V)
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	// A non-positive capacity is a construction bug, not a runtime
	// condition: Add would evict the entry it just inserted and every Get
	// would miss silently. Fail loudly instead.
	if capacity <= 0 {
		panic(fmt.Sprintf("service: lruCache capacity must be positive, got %d", capacity))
	}
	return &lruCache[V]{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element, capacity)}
}

func (c *lruCache[V]) Get(key string) (V, bool) {
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(lruEntry[V]).val, true
}

// Peek returns the value without promoting it — for read-only listings
// that must not perturb eviction order.
func (c *lruCache[V]) Peek(key string) (V, bool) {
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(lruEntry[V]).val, true
}

// Add inserts (or refreshes) key and returns how many entries were
// evicted past capacity, so callers can feed eviction counters.
func (c *lruCache[V]) Add(key string, v V) int {
	if el, ok := c.byKey[key]; ok {
		if c.onDrop != nil {
			c.onDrop(el.Value.(lruEntry[V]).val)
		}
		el.Value = lruEntry[V]{key: key, val: v}
		c.order.MoveToFront(el)
		return 0
	}
	c.byKey[key] = c.order.PushFront(lruEntry[V]{key: key, val: v})
	evicted := 0
	for c.order.Len() > c.cap {
		back := c.order.Remove(c.order.Back()).(lruEntry[V])
		delete(c.byKey, back.key)
		if c.onDrop != nil {
			c.onDrop(back.val)
		}
		evicted++
	}
	return evicted
}

func (c *lruCache[V]) Len() int { return c.order.Len() }

// Keys returns the keys from most to least recently used (for tests and
// the jobs listing).
func (c *lruCache[V]) Keys() []string {
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(lruEntry[V]).key)
	}
	return out
}
