package pool

import (
	"runtime"
	"sync/atomic"
)

// Striped is a fixed-width, per-P-approximating free list for scratch
// objects on parallel hot paths. Where Arena delegates to sync.Pool —
// whose victim caches are cleared by the garbage collector, re-paying the
// allocation after every GC cycle — a Striped keeps exactly GOMAXPROCS
// slots alive forever, so once every stripe is primed the work-stealing
// branch-and-bound's frames are served at zero steady-state allocations
// regardless of GC pressure.
//
// Each stripe is a single atomic slot. Get prefers the goroutine's
// current stripe (a round-robin hint; Go does not expose the P id, but
// under steady load the hint distributes checkouts evenly) and falls back
// to scanning the other stripes before allocating cold. Put parks the
// object back on the preferred stripe and walks on if it is occupied;
// an object that finds no free slot is dropped for the collector, which
// bounds the retained set at one object per stripe.
//
// A Striped is safe for concurrent use. Objects must not be touched
// after Put. Use it for bounded-size scratch only: the slots are never
// released, so anything parked here lives for the process.
type Striped[T any] struct {
	alloc func() *T
	slots []atomic.Pointer[T]
	next  atomic.Uint32
}

// NewStriped returns a striped free list of GOMAXPROCS slots backed by
// alloc for cold Gets.
func NewStriped[T any](alloc func() *T) *Striped[T] {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return &Striped[T]{alloc: alloc, slots: make([]atomic.Pointer[T], n)}
}

// Get checks an object out, scanning from the caller's stripe hint and
// allocating only when every stripe is empty.
func (s *Striped[T]) Get() *T {
	h := int(s.next.Add(1)) % len(s.slots)
	for i := 0; i < len(s.slots); i++ {
		if x := s.slots[(h+i)%len(s.slots)].Swap(nil); x != nil {
			return x
		}
	}
	return s.alloc()
}

// Put parks the object on the first free stripe from the caller's hint;
// with every stripe occupied the object is left to the collector.
func (s *Striped[T]) Put(x *T) {
	if x == nil {
		return
	}
	h := int(s.next.Load()) % len(s.slots)
	for i := 0; i < len(s.slots); i++ {
		if s.slots[(h+i)%len(s.slots)].CompareAndSwap(nil, x) {
			return
		}
	}
}
