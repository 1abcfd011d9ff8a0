package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Result classifies how a Do call obtained its value.
type Result int

const (
	// Miss: this call ran the computation (it was the flight leader).
	Miss Result = iota
	// Hit: the value came from the LRU store.
	Hit
	// Shared: the value came from another caller's in-flight computation.
	Shared
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("result(%d)", int(r))
	}
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      int64 // lookups whose stored value the caller served (RecordHit)
	Misses    int64 // Do calls that ran the computation
	Shared    int64 // Do calls that joined another call's flight
	Errors    int64 // leader computations that returned an error
	Evictions int64 // entries displaced by capacity pressure
	Size      int   // entries currently stored
	Capacity  int   // configured capacity (0 = store disabled)
}

const numShards = 16

// Cache is a sharded LRU with singleflight deduplication. The zero value
// is not usable; construct with New. A Cache is safe for concurrent use.
type Cache struct {
	shards   [numShards]shard
	capacity int // total, distributed over the shards

	hits, misses, shared, errors, evictions atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element whose Value is *entry
	inflight map[string]*flight
	capacity int
}

type entry struct {
	key string
	val any
}

type flight struct {
	done chan struct{} // closed when val/err are final
	val  any
	err  error
}

// New returns a Cache holding up to capacity entries. Capacity <= 0
// disables the store — every Do recomputes unless it can join a flight —
// which keeps singleflight deduplication available with caching off.
// Positive capacities are rounded up so every shard holds at least one
// entry (otherwise part of the keyspace would silently never cache);
// tiny requested capacities therefore admit up to numShards entries.
func New(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	c := &Cache{capacity: capacity}
	per := capacity / numShards
	rem := capacity % numShards
	for i := range c.shards {
		s := &c.shards[i]
		s.ll = list.New()
		s.items = make(map[string]*list.Element)
		s.inflight = make(map[string]*flight)
		s.capacity = per
		if i < rem {
			s.capacity++
		}
		if capacity > 0 && s.capacity == 0 {
			s.capacity = 1
		}
	}
	return c
}

// FNV-1a, inlined over the key instead of hash/fnv so neither the string
// nor the byte-buffer shard lookup allocates (hash.Hash32 would force a
// []byte conversion on the hot path).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func (c *Cache) shardFor(key string) *shard {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * fnvPrime32
	}
	return &c.shards[h%numShards]
}

func (c *Cache) shardForBytes(key []byte) *shard {
	h := uint32(fnvOffset32)
	for _, b := range key {
		h = (h ^ uint32(b)) * fnvPrime32
	}
	return &c.shards[h%numShards]
}

// Do returns the cached value for key, or computes it with fn. Concurrent
// calls for the same key are deduplicated: one leader runs fn, the rest
// wait and share its value (or its error). A waiting caller whose ctx is
// cancelled unblocks with the ctx error while the leader keeps running;
// the leader itself is bounded only by whatever ctx fn captures.
//
// Successful values are stored (evicting LRU entries past capacity);
// errors are returned to the leader and the waiters of that one flight
// and then forgotten. A Hit is not counted here: the caller checks the
// stored value and counts it with RecordHit once it serves it.
func (c *Cache) Do(ctx context.Context, key string, fn func() (any, error)) (any, Result, error) {
	s := c.shardFor(key)

	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		val := el.Value.(*entry).val
		s.mu.Unlock()
		return val, Hit, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		c.shared.Add(1)
		select {
		case <-f.done:
			return f.val, Shared, f.err
		case <-ctx.Done():
			return nil, Shared, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	c.misses.Add(1)
	settled := false
	defer func() {
		if !settled { // fn panicked: fail the flight so waiters unblock
			f.err = fmt.Errorf("cache: computation for %q panicked", key)
			c.settle(s, key, f, false)
		}
	}()
	val, err := fn()
	f.val, f.err = val, err
	c.settle(s, key, f, err == nil)
	settled = true
	if err != nil {
		c.errors.Add(1)
	}
	return val, Miss, err
}

// GetBytes is the lookup-only path for keys assembled in a reusable byte
// buffer: the map is read through string(key), which the compiler
// evaluates without materialising a string, so a warm lookup allocates
// nothing. A found entry refreshes its recency. GetBytes counts nothing:
// the caller counts a value it serves with RecordHit, and a miss either
// through Do, which classifies the outcome exactly once, or with
// RecordMiss when it computes the result outside the cache.
func (c *Cache) GetBytes(key []byte) (any, bool) {
	s := c.shardForBytes(key)
	s.mu.Lock()
	if el, ok := s.items[string(key)]; ok {
		s.ll.MoveToFront(el)
		val := el.Value.(*entry).val
		s.mu.Unlock()
		return val, true
	}
	s.mu.Unlock()
	return nil, false
}

// RecordHit counts a stored value, found by GetBytes or Do, that the
// caller checked and served. A value the caller drops instead is no hit.
func (c *Cache) RecordHit() { c.hits.Add(1) }

// RecordMiss counts a store miss observed through GetBytes by a caller
// that computes the result outside the cache (the anytime and warm
// non-exact solve paths), keeping the hit/miss ratio faithful to the
// lookups served.
func (c *Cache) RecordMiss() { c.misses.Add(1) }

// settle publishes the flight's result: stores the value when wanted and
// capacity allows, removes the in-flight marker, and wakes the waiters.
func (c *Cache) settle(s *shard, key string, f *flight, store bool) {
	s.mu.Lock()
	if store {
		c.storeLocked(s, key, f.val)
	}
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
}

// storeLocked inserts or refreshes key and enforces the shard capacity.
// The caller holds s.mu.
func (c *Cache) storeLocked(s *shard, key string, val any) {
	if s.capacity <= 0 {
		return
	}
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, val: val})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

// KV is one exported cache entry.
type KV struct {
	Key string
	Val any
}

// Export returns up to limit stored entries whose key passes keep (nil
// keeps everything), most recently used first within each shard — the
// top-K selection of the warm-state migration path. Exporting does not
// disturb recency.
func (c *Cache) Export(limit int, keep func(key string) bool) []KV {
	if limit <= 0 {
		return nil
	}
	out := make([]KV, 0, min(limit, 64))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			if keep != nil && !keep(e.key) {
				continue
			}
			out = append(out, KV{Key: e.key, Val: e.val})
			if len(out) >= limit {
				s.mu.Unlock()
				return out
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Put stores val under key directly, bypassing the flight machinery —
// the adoption path for entries migrated from another node. Counted as
// neither hit nor miss: no lookup was served.
func (c *Cache) Put(key string, val any) {
	s := c.shardFor(key)
	s.mu.Lock()
	c.storeLocked(s, key, val)
	s.mu.Unlock()
}

// CompareAndDelete removes key only while it still maps to val: the
// caller found val unusable, and an entry stored under key since the
// caller's lookup must survive. It reports whether it removed the entry
// and counts neither a hit nor a miss. Stored values are compared with
// ==, so they must be comparable (pointers are).
func (c *Cache) CompareAndDelete(key string, val any) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok || el.Value.(*entry).val != val {
		return false
	}
	s.ll.Remove(el)
	delete(s.items, key)
	return true
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Errors:    c.errors.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
		Capacity:  c.capacity,
	}
}
