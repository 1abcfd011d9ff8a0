// Package boundcache is the bound-memoization store of the exact
// searches: a sharded, bounded, concurrency-safe map from a subtree's
// identity — its Merkle (cr2) hash plus the boundary context the search
// sees — to that subtree's proven standalone optimum, the inference half
// of a bounded depth-first search. Whole-instance answers are not kept
// here: the Service's result cache holds those, and checks them.
//
// # Key semantics
//
// A subtree's Merkle hash (model.SubtreeHashes) pins everything a solver
// reads: the shape and planar embedding, every h/s/c profile as exact
// float bits, and the satellite partition renumbered structurally. Two
// positions — in the same tree, across revisions of a session, or across
// different instances of a corpus — with equal hashes are
// indistinguishable to the search, so an optimum proven under one is
// valid under the other. Only non-root subtrees are memoized, and every
// one of them may sink whole to its satellite, so where the subtree sits
// adds nothing to its identity. Sats and Bands (the distinct satellites
// and maximal same-satellite leaf runs under the subtree) are derivable
// from the hashed content and ride along as belt-and-braces context: if
// the hash scheme ever changes what it covers, entries keyed by an older
// notion of identity miss instead of corrupting a search.
//
// Parallelism, warm hints, budgets and deadlines stay out of the key for
// the same reason they stay out of the serving layers' cache identity:
// they are advisory and never change an exact answer, only how fast it
// is proven.
//
// # Invalidation
//
// There is none — entries are never wrong, only unreachable. A mutation
// changes the Merkle hashes along the root-to-edit spine, so the next
// solve misses exactly on the dirty spine and re-proves it, while every
// untouched subtree still hits. Capacity pressure recycles entries with
// a second-chance sweep.
//
// # Concurrency
//
// Lookup takes a shard read-lock and allocates nothing (CI-guarded);
// Insert takes the shard write-lock, keeps an existing entry, and evicts
// unused entries when the shard is full. Entries are immutable after
// insertion, so readers never observe a partially built value.
// Concurrent solves of the same uncached subtree race benignly: both
// prove the same optimum and the second Insert is a no-op.
package boundcache

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Key identifies one memoizable subtree: its Merkle hash plus the
// boundary context the search sees (see the package comment).
type Key struct {
	// Hash is the subtree's cr2 Merkle hash (model.SubtreeHashes).
	Hash [32]byte
	// Sats is the number of distinct satellites under the subtree.
	Sats int32
	// Bands is the number of maximal same-satellite leaf runs.
	Bands int32
}

// Entry is one proven fact about a subtree, immutable after Insert.
type Entry struct {
	// LB is the subtree's optimal standalone delay (the host time it adds
	// plus the satellite load it adds, with its parent hosted), proven by
	// a completed sub-solve. The searches read it as a lower bound.
	LB float64

	used atomic.Bool // second-chance bit, set on hit
}

const numShards = 64

// MinSpan is the smallest subtree span worth memoizing; solvers fall back
// to their static bound below it.
const MinSpan = 8

// capacity bounds the total entries a Cache holds.
const capacity = 1 << 14

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      int64 // lookups that found an entry
	Misses    int64 // lookups that found none
	Stores    int64 // inserts that added an entry
	Evictions int64 // entries recycled under capacity pressure
	Entries   int64 // entries currently held
}

type shard struct {
	mu sync.RWMutex
	m  map[Key]*Entry
}

// Cache is a sharded, bounded store of proven subtree optima. The zero
// value is not usable; call New.
type Cache struct {
	shards  [numShards]shard
	perShrd int

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
}

// New returns an empty cache.
func New() *Cache {
	c := &Cache{perShrd: capacity / numShards}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*Entry)
	}
	return c
}

func (c *Cache) shardFor(k *Key) *shard {
	return &c.shards[k.Hash[0]&(numShards-1)]
}

// Lookup returns the entry proven for k, if any. The hot path of the
// exact searches: it allocates nothing (CI-guarded) and takes only a
// shard read-lock.
func (c *Cache) Lookup(k Key) (*Entry, bool) {
	s := c.shardFor(&k)
	s.mu.RLock()
	e := s.m[k]
	s.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	e.used.Store(true)
	c.hits.Add(1)
	return e, true
}

// Insert records e as proven for k, reporting whether the store changed.
// An existing entry is kept: both are the same subtree's proven optimum.
// e must not be modified by the caller after Insert.
func (c *Cache) Insert(k Key, e *Entry) bool {
	if e == nil {
		return false
	}
	s := c.shardFor(&k)
	s.mu.Lock()
	if s.m[k] != nil {
		s.mu.Unlock()
		return false
	}
	if len(s.m) >= c.perShrd {
		c.evictLocked(s)
	}
	s.m[k] = e
	s.mu.Unlock()
	c.stores.Add(1)
	return true
}

// evictLocked recycles one entry by second chance: the sweep clears
// used bits as it passes and removes the first entry found cold; if
// every entry was hot, the first one swept is removed (its bit was
// just cleared). Map iteration order randomises the sweep start, which
// is what keeps one hot key from pinning its shard forever.
func (c *Cache) evictLocked(s *shard) {
	var fallback Key
	first := true
	for k, e := range s.m {
		if !e.used.Swap(false) {
			delete(s.m, k)
			c.evictions.Add(1)
			return
		}
		if first {
			fallback, first = k, false
		}
	}
	if !first {
		delete(s.m, fallback)
		c.evictions.Add(1)
	}
}

// Exported is one serialisable entry: the key plus the proven optimum,
// detached from the in-store Entry (whose second-chance bit must not
// travel).
type Exported struct {
	Key Key
	LB  float64
}

// Export returns up to limit entries, largest optimum first: the larger
// a subtree's cost, the more of a search it settles. The migration path
// ships these to nodes that may re-solve overlapping instances.
func (c *Cache) Export(limit int) []Exported {
	if limit <= 0 {
		return nil
	}
	var all []Exported
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, e := range s.m {
			all = append(all, Exported{Key: k, LB: e.LB})
		}
		s.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].LB > all[j].LB })
	if len(all) > limit {
		all = all[:limit]
	}
	return all
}

// Import adopts exported entries, returning how many were stored. Insert
// keeps existing entries, so adoption is idempotent and never replaces
// a local proof.
func (c *Cache) Import(entries []Exported) int {
	adopted := 0
	for i := range entries {
		if c.Insert(entries[i].Key, &Entry{LB: entries[i].LB}) {
			adopted++
		}
	}
	return adopted
}

// Len returns the number of entries currently held.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
		Entries:   int64(c.Len()),
	}
}
