package boundcache

import (
	"fmt"
	"sync"
	"testing"
)

func keyN(n int) Key {
	var k Key
	k.Hash[0] = byte(n)
	k.Hash[1] = byte(n >> 8)
	k.Hash[2] = byte(n >> 16)
	return k
}

func TestLookupInsertRoundTrip(t *testing.T) {
	c := New()
	k := keyN(1)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("empty cache claims a hit")
	}
	c.Insert(k, &Entry{LB: 7.5})
	e, ok := c.Lookup(k)
	if !ok || e.LB != 7.5 {
		t.Fatalf("got (%+v, %v), want LB=7.5", e, ok)
	}
	// Distinct boundary context is a distinct key, even with one hash.
	k2 := k
	k2.Sats = 2
	if _, ok := c.Lookup(k2); ok {
		t.Fatal("a key with other boundary context aliased the entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Stores != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInsertKeepsExisting: every entry is a subtree's proven optimum, so
// a second insert under the same key changes nothing, and neither does
// importing it again.
func TestInsertKeepsExisting(t *testing.T) {
	c := New()
	k := keyN(2)
	if !c.Insert(k, &Entry{LB: 10}) {
		t.Fatal("first insert not stored")
	}
	if c.Insert(k, &Entry{LB: 12}) {
		t.Fatal("second insert replaced the existing entry")
	}
	if n := c.Import([]Exported{{Key: k, LB: 5}}); n != 0 {
		t.Fatalf("import over an existing entry adopted %d", n)
	}
	if e, _ := c.Lookup(k); e.LB != 10 {
		t.Fatalf("existing entry changed: LB=%v", e.LB)
	}
	if st := c.Stats(); st.Stores != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 store and 1 entry", st)
	}
}

func TestEvictionBoundsCapacity(t *testing.T) {
	c := New()
	c.perShrd = 2 // shrink the store so the stream overflows it
	cap := 2 * numShards
	n := 4 * cap
	for i := 0; i < n; i++ {
		c.Insert(keyN(i), &Entry{LB: float64(i)})
	}
	if got := c.Len(); got > cap+numShards {
		t.Fatalf("cache holds %d entries, capacity %d", got, cap)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("over-capacity insert stream evicted nothing")
	}
	if st.Stores != int64(n) {
		t.Fatalf("stores = %d, want %d", st.Stores, n)
	}
}

// TestEvictionSecondChance: a recently hit entry survives the sweep that
// recycles cold ones.
func TestEvictionSecondChance(t *testing.T) {
	c := New()
	c.perShrd = 2 // two entries per shard
	hot := keyN(0)
	c.Insert(hot, &Entry{LB: 1})
	for round := 0; round < 8; round++ {
		if _, ok := c.Lookup(hot); !ok {
			t.Fatalf("round %d: hot entry evicted despite second chance", round)
		}
		// A colliding insert lands in the hot key's shard; once the shard
		// is full the sweep must recycle the cold previous newcomer, not
		// the just-used entry.
		k := keyN(0)
		k.Sats = int32(round + 1)
		c.Insert(k, &Entry{LB: 2})
	}
	if _, ok := c.Lookup(hot); !ok {
		t.Fatal("hot entry evicted")
	}
}

func TestConcurrentInsertLookup(t *testing.T) {
	c := New()
	c.perShrd = 4 // small shards, so the racing inserts also evict
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keyN(i % 97)
				c.Insert(k, &Entry{LB: float64(i)})
				if e, ok := c.Lookup(k); ok && e == nil {
					t.Error("hit returned nil entry")
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("cache empty after concurrent inserts")
	}
}

// TestLookupZeroAlloc is the allocs/op contract of the search hot path:
// a hit must not allocate. (The CI allocs guard runs the root package's
// TestBoundCacheLookupZeroAlloc, which exercises this same path through
// the public API; this is the unit-level pin.)
func TestLookupZeroAlloc(t *testing.T) {
	c := New()
	k := keyN(3)
	c.Insert(k, &Entry{LB: 1})
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Lookup(k); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v per hit, want 0", allocs)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New()
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = keyN(i)
		c.Insert(keys[i], &Entry{LB: float64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys[i&255])
	}
}

func ExampleCache() {
	c := New()
	k := Key{Sats: 2, Bands: 3}
	c.Insert(k, &Entry{LB: 41.5})
	if e, ok := c.Lookup(k); ok {
		fmt.Println(e.LB)
	}
	// Output: 41.5
}
