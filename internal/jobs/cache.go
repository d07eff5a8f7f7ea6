package jobs

import (
	"container/list"
	"sync"
)

// Cache is a content-addressed LRU result cache: keys are canonical spec
// hashes, so two jobs that describe the same flow evaluation — however
// phrased — share one entry and the second is never recomputed. Entries
// are stored results (bytes plus digest), so a hit is served without an
// encode. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	// admit, when set, gates inserts at capacity: the candidate key is
	// admitted only if admit(candidate, victim) is true, where victim is
	// the LRU entry it would displace. Nil admits everything (plain LRU).
	admit func(candidate, victim string) bool
}

type cacheEntry struct {
	key string
	st  *Stored
}

// NewCache creates a cache holding up to capacity results. A capacity
// <= 0 disables caching (every Get misses, Put is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (*Stored, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).st, true
}

// Put stores the result under key, evicting the least recently used
// entry when full. The cache takes shared ownership: callers must not
// mutate st afterwards.
func (c *Cache) Put(key string, st *Stored) {
	if c == nil || c.cap <= 0 || st == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).st = st
		c.order.MoveToFront(el)
		return
	}
	if c.admit != nil && c.order.Len() >= c.cap {
		if victim := c.order.Back(); victim != nil &&
			!c.admit(key, victim.Value.(*cacheEntry).key) {
			return // the victim is hotter; the candidate stays disk-only
		}
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, st: st})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// SetAdmission installs the admission policy consulted when a Put at
// capacity would evict the LRU victim (TinyLFU-style: the disk tier's
// frequency sketch decides promotion). Call before the cache is shared;
// nil restores plain LRU.
func (c *Cache) SetAdmission(admit func(candidate, victim string) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.admit = admit
	c.mu.Unlock()
}

// Keys snapshots the cached content addresses, most recently used
// first. The anti-entropy repair loop walks this to find results whose
// replica sets may have holes after a partition.
func (c *Cache) Keys() []string {
	if c == nil || c.cap <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry).key)
	}
	return keys
}

// Len reports the number of cached results.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap reports the cache capacity.
func (c *Cache) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}
