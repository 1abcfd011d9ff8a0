package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHitMissAndLRU(t *testing.T) {
	// One shard's worth of capacity routed to a single key space: use
	// keys that land anywhere — the per-shard split still enforces the
	// global bound, which is all this test asserts.
	c := New(numShards) // one entry per shard
	ctx := context.Background()

	calls := 0
	get := func(key string) (any, Result) {
		v, how, err := c.Do(ctx, key, func() (any, error) {
			calls++
			return "val-" + key, nil
		})
		if err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		if how == Hit {
			c.RecordHit() // the caller serves the stored value
		}
		return v, how
	}

	if v, how := get("a"); how != Miss || v != "val-a" {
		t.Fatalf("first get: %v %v", v, how)
	}
	if v, how := get("a"); how != Hit || v != "val-a" {
		t.Fatalf("second get: %v %v", v, how)
	}
	if calls != 1 {
		t.Fatalf("computation ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Shared != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	ctx := context.Background()
	// lookup runs a Do that would store v on a miss and reports how the
	// call was served — the only mutation path the cache exposes.
	lookup := func(c *Cache, key string, v any) Result {
		_, how, err := c.Do(ctx, key, func() (any, error) { return v, nil })
		if err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		return how
	}

	// Capacity 0 disables the store entirely: the same key misses twice.
	c := New(0)
	lookup(c, "x", 1)
	if how := lookup(c, "x", 1); how != Miss {
		t.Fatalf("capacity-0 cache served a %v", how)
	}
	if c.Len() != 0 {
		t.Fatalf("capacity-0 cache stored %d entries", c.Len())
	}

	// A tiny capacity still caches every shard: with the per-shard floor
	// of one entry, any key must hit on repeat.
	tiny := New(1)
	lookup(tiny, "anywhere", 1)
	if how := lookup(tiny, "anywhere", 1); how != Hit {
		t.Fatalf("tiny cache served a %v, want a hit", how)
	}

	// Overflow one shard: find three keys that collide and watch the
	// least-recently-used one go.
	c2 := New(2 * numShards) // 2 per shard
	target := c2.shardFor("seed")
	var same []string
	for i := 0; len(same) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c2.shardFor(k) == target {
			same = append(same, k)
		}
	}
	lookup(c2, same[0], 0)
	lookup(c2, same[1], 1)
	lookup(c2, same[0], 0) // refresh: same[1] is now the LRU entry
	lookup(c2, same[2], 2)
	if how := lookup(c2, same[1], 1); how != Miss {
		t.Fatalf("LRU entry survived eviction (%v)", how)
	}
	if ev := c2.Stats().Evictions; ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}
}

// TestSingleflightDeduplicates is the deterministic dedup proof: a leader
// blocks inside the computation while N waiters join the flight, then the
// gate opens and everyone must observe the single computed value.
func TestSingleflightDeduplicates(t *testing.T) {
	c := New(16)
	ctx := context.Background()
	const waiters = 8

	gate := make(chan struct{})
	var computations atomic.Int64

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (any, error) {
			computations.Add(1)
			<-gate
			return 42, nil
		})
		leaderDone <- err
	}()

	// Wait until the leader's flight is registered before spawning
	// joiners, so every one of them is genuinely concurrent.
	s := c.shardFor("k")
	for {
		s.mu.Lock()
		_, inflight := s.inflight["k"]
		s.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}

	var wg sync.WaitGroup
	results := make([]Result, waiters)
	values := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, how, err := c.Do(ctx, "k", func() (any, error) {
				computations.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i], values[i] = how, v
		}(i)
	}

	// Let the joiners reach the flight, then open the gate. Shared
	// counts how many parked; grow the wait until all did (bounded).
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Shared < waiters && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}

	if n := computations.Load(); n != 1 {
		t.Fatalf("computation ran %d times for %d concurrent callers, want 1", n, waiters+1)
	}
	for i := range results {
		if values[i] != 42 {
			t.Fatalf("waiter %d got %v, want 42", i, values[i])
		}
		if results[i] != Shared && results[i] != Hit {
			t.Fatalf("waiter %d classified %v, want shared or hit", i, results[i])
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	hits := 0
	for _, how := range results {
		if how == Hit {
			hits++
		}
	}
	if int64(hits)+st.Shared != waiters {
		t.Fatalf("hits(%d)+shared(%d) != %d waiters", hits, st.Shared, waiters)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(16)
	ctx := context.Background()
	boom := errors.New("boom")

	_, how, err := c.Do(ctx, "k", func() (any, error) { return nil, boom })
	if how != Miss || !errors.Is(err, boom) {
		t.Fatalf("first call: %v %v", how, err)
	}
	v, how, err := c.Do(ctx, "k", func() (any, error) { return "ok", nil })
	if err != nil || how != Miss || v != "ok" {
		t.Fatalf("retry after error: %v %v %v — errors must not be cached", v, how, err)
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
}

func TestWaiterHonoursContext(t *testing.T) {
	c := New(16)
	gate := make(chan struct{})
	defer close(gate)

	go c.Do(context.Background(), "k", func() (any, error) {
		<-gate
		return 1, nil
	})
	s := c.shardFor("k")
	for {
		s.mu.Lock()
		_, inflight := s.inflight["k"]
		s.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() (any, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
}

func TestPanicFailsFlight(t *testing.T) {
	c := New(16)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Do(context.Background(), "k", func() (any, error) { panic("kaboom") })
	}()
	// The flight must be cleared so the key stays usable.
	v, how, err := c.Do(context.Background(), "k", func() (any, error) { return "fine", nil })
	if err != nil || how != Miss || v != "fine" {
		t.Fatalf("key unusable after panic: %v %v %v", v, how, err)
	}
}

// TestGetBytesLookupOnly: GetBytes finds stored values without starting
// a flight and counts nothing; the caller counts what it serves.
func TestGetBytesLookupOnly(t *testing.T) {
	c := New(8)
	if _, ok := c.GetBytes([]byte("k")); ok {
		t.Fatal("GetBytes on empty cache returned a value")
	}
	if _, _, err := c.Do(context.Background(), "k", func() (any, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	v, ok := c.GetBytes([]byte("k"))
	if !ok || v != 7 {
		t.Fatalf("GetBytes = %v, %v; want 7, true", v, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats %+v; want 0 hits, 1 miss (the Do)", st)
	}
	c.RecordHit()
	c.RecordMiss()
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v; want the recorded hit and miss", st)
	}
}

// TestCompareAndDeleteKeepsFresherEntry replays the race a caller that
// drops an unusable value runs into: two callers read the same bad entry,
// the first drops it and stores a fresh one, and the second's drop of
// the value it read must not remove the fresh entry.
func TestCompareAndDeleteKeepsFresherEntry(t *testing.T) {
	c := New(16)
	ctx := context.Background()
	bad, fresh := new(int), new(int)
	c.Put("k", bad)
	a, _ := c.GetBytes([]byte("k"))
	b, _ := c.GetBytes([]byte("k"))

	if !c.CompareAndDelete("k", b) {
		t.Fatal("first drop of the bad entry removed nothing")
	}
	v, how, err := c.Do(ctx, "k", func() (any, error) { return fresh, nil })
	if err != nil || how != Miss || v != fresh {
		t.Fatalf("re-solve after the drop: %v %v %v; want a miss storing the fresh value", v, how, err)
	}
	if c.CompareAndDelete("k", a) {
		t.Fatal("a stale drop removed the fresher entry")
	}
	if v, ok := c.GetBytes([]byte("k")); !ok || v != fresh {
		t.Fatalf("after the stale drop GetBytes = %v, %v; want the fresh value", v, ok)
	}

	// A value replaced in place by Put is stale as well.
	newer := new(int)
	c.Put("k", newer)
	if c.CompareAndDelete("k", fresh) || !c.CompareAndDelete("k", newer) {
		t.Fatal("drop after an in-place replacement removed the wrong value")
	}
	if c.CompareAndDelete("k", newer) || c.Len() != 0 {
		t.Fatalf("drop of a missing key reported a removal (len %d)", c.Len())
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats %+v; want 0 hits (lookups count nothing) and 1 miss (the Do)", st)
	}
}

// TestCompareAndDeleteConcurrent stores and drops values from several
// goroutines whose keys share shards: every drop of a value the
// goroutine itself stored last must succeed. Run with -race.
func TestCompareAndDeleteConcurrent(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g)
			for range 200 {
				v := new(int)
				c.Put(key, v)
				if !c.CompareAndDelete(key, v) {
					t.Errorf("%s: drop of the value just stored failed", key)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 0 {
		t.Fatalf("%d entries left after every drop", c.Len())
	}
}
