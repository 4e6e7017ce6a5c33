// Package lru is the one way a long-lived verifier forgets: a map bounded
// to a number of entries that evicts the least recently used one. Every
// cache that outlives a request (verdicts, slice encodings, interned
// engines, journeys, applied request ids) is one of these; DESIGN.md's
// "Bounded memory" lists what each keeps and at what cap.
package lru

// entry is one key/value pair on the recency ring.
type entry[K comparable, V any] struct {
	key        K
	val        V
	pinned     bool
	prev, next *entry[K, V]
}

// Cache maps keys to values and holds at most its capacity of them,
// unless the owner pinned more: a pinned entry is never evicted. It is
// not safe for concurrent use; its owner serializes access.
type Cache[K comparable, V any] struct {
	capacity int
	m        map[K]*entry[K, V]
	// root is the ring's sentinel: root.next is the most recently used
	// entry, root.prev the least.
	root    entry[K, V]
	onEvict func(K, V)
}

// New builds a cache of capacity entries (at least one). onEvict, when
// non-nil, is called with every entry the cache drops to make room, under
// the owner's lock; replacing a value through Put is not an eviction.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{capacity: max(capacity, 1), m: map[K]*entry[K, V]{}, onEvict: onEvict}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Len is the number of entries held.
func (c *Cache[K, V]) Len() int { return len(c.m) }

// Get returns the value under k and makes it the most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.lookup(k, true) }

// Peek returns the value under k without touching its recency.
func (c *Cache[K, V]) Peek(k K) (V, bool) { return c.lookup(k, false) }

func (c *Cache[K, V]) lookup(k K, touch bool) (v V, ok bool) {
	e, ok := c.m[k]
	if ok {
		if touch {
			c.unlink(e)
			c.link(e)
		}
		v = e.val
	}
	return v, ok
}

// Put stores v under k as the most recently used entry, replacing any
// value k held. A new key first evicts least recently used unpinned
// entries until there is room; when every entry is pinned the cache grows
// past its capacity instead.
func (c *Cache[K, V]) Put(k K, v V) {
	if e, ok := c.m[k]; ok {
		e.val = v
		c.unlink(e)
		c.link(e)
		return
	}
	c.trim(c.capacity - 1)
	e := &entry[K, V]{key: k, val: v}
	c.m[k] = e
	c.link(e)
}

// Pin exempts k from eviction (pinned) or returns it to the recency order;
// unpinning evicts back down to capacity.
func (c *Cache[K, V]) Pin(k K, pinned bool) {
	if e, ok := c.m[k]; ok {
		e.pinned = pinned
		c.trim(c.capacity)
	}
}

// Walk visits the entries from least to most recently used until fn
// returns false.
func (c *Cache[K, V]) Walk(fn func(K, V) bool) {
	for e := c.root.prev; e != &c.root; e = e.prev {
		if !fn(e.key, e.val) {
			return
		}
	}
}

// trim evicts least recently used unpinned entries until at most n remain
// or only pinned ones are left.
func (c *Cache[K, V]) trim(n int) {
	for e := c.root.prev; len(c.m) > n && e != &c.root; {
		victim := e
		e = e.prev
		if victim.pinned {
			continue
		}
		c.unlink(victim)
		delete(c.m, victim.key)
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.val)
		}
	}
}

func (c *Cache[K, V]) link(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev = e
	c.root.next = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}
