package exact

import (
	"context"
	"math"

	"repro/internal/boundcache"
	"repro/internal/model"
	"repro/internal/pool"
)

// BoundSeed is the product of the bound-memoization pre-pass, which runs
// sequentially before the branch-and-bound search at any worker count:
// per-subtree pruning extras and a tightened root lower bound.
type BoundSeed struct {
	// Extra[p] is a proven lower bound on subtree p's standalone delay
	// (host time it adds plus satellite load it adds, parent hosted)
	// minus Forced[p]: the part of p's future cost the forced-host bound
	// cannot see. The searches keep a prefix maximum of Extra over their
	// decision stack and fold it into the pruning bound.
	Extra []float64
	// RootLB is a proven floor on the instance's optimal delay, at least
	// Forced[RootPos] and usually far tighter: LowerBound starts here.
	RootLB float64

	Explored  int // nodes spent proving uncached subtrees
	Pruned    int // branches cut during those sub-solves
	Hits      int // cache lookups that found a proven entry
	Misses    int // cache lookups that found none
	BudgetHit bool
	Err       error
}

// PrepareBounds consults and populates the bound cache for one solve of
// t. It walks the subtrees in post order (children before parents):
// each memoizable subtree — processing, non-root, span at least
// boundcache.MinSpan — either reads its proven standalone optimum from
// the cache or is solved standalone right here (a bounded
// branch-and-bound of just that span, itself pruned by the extras
// already proven for its descendants) and the proof inserted. Smaller subtrees get a static
// closed-form floor: for a sensor its uplink cost; for a CRU the better
// of sinking whole (SubSat + UpComm) and hosting it above its
// children's recursive floors.
//
// On a warm re-solve after a mutation only the dirty Merkle spine
// misses, so the pre-pass re-proves exactly the subtrees the edit
// touched and the main search starts with every clean region's exact
// cost already in its bound.
//
// The node budget is shared with the main search via BoundSeed.Explored;
// on budget or context expiry the remaining subtrees degrade to their
// static floors and the caller sees BudgetHit/Err.
func PrepareBounds(ctx context.Context, t *model.Tree, bc *boundcache.Cache, maxNodes int) *BoundSeed {
	if ctx == nil {
		ctx = context.Background()
	}
	c := model.Compile(t)
	n := c.Len()
	hashes := model.SubtreeHashes(t)
	seed := &BoundSeed{}

	// Boundary-context scratch for key construction (see spanKey).
	epoch := make([]int32, c.NumSats)
	gen := int32(0)

	extra := make([]float64, n)
	res := &Result{Delay: math.Inf(1)} // counter sink for the sub-solves

	sc := bnbScratches.Get()
	defer bnbScratches.Put(sc)
	sc.lbc = pool.Keep(sc.lbc, n)
	lbc := sc.lbc
	sc.loc = pool.Keep(sc.loc, n)
	sc.loads = pool.Slice(sc.loads, c.NumSats)
	sc.rem = pool.Keep(sc.rem, c.NumSats)
	sc.w = pool.Keep(sc.w, n)
	colourFloors(c, sc.w)
	run := &bnbRun{
		bnbState: bnbState{loc: sc.loc, loads: sc.loads, rem: sc.rem, stack: sc.stack[:0], exm: sc.exm[:0]},
		ctx:      ctx, c: c, res: res, maxNodes: maxNodes, sc: sc, extra: extra,
	}
	c.BaseLocations(sc.loc)

	// One ascending pass: positions are post-ordered, so every child's
	// static floor and extra are ready before its parent needs them, and
	// a standalone sub-solve of p reuses the exact bounds just proven
	// for p's own descendants.
	for p := int32(0); p < int32(n); p++ {
		if !c.Proc[p] {
			// A sensor with a hosted parent puts its raw frame on the
			// uplink; nothing forced offsets it.
			lbc[p] = c.UpComm[p]
			extra[p] = c.UpComm[p]
			continue
		}
		sum, mx := 0.0, 0.0
		for _, ch := range c.Children(p) {
			sum += c.Forced[ch]
			if e := lbc[ch] - c.Forced[ch]; e > mx {
				mx = e
			}
		}
		// Host option: p's own time, every child's forced floor, and the
		// largest child excess — any completion hosting p pays at least
		// this. Sink option (monochromatic non-root only): the whole
		// subtree's satellite time plus its uplink, exactly.
		v := c.HostTime[p] + sum + mx
		if sat := c.Colour[p]; sat != model.NoSatellite && p != c.RootPos {
			if s := c.SubSat[p] + c.UpComm[p]; s < v {
				v = s
			}
		}
		lbc[p] = v
		tb := v
		if p != c.RootPos && p+1-c.Start[p] >= boundcache.MinSpan {
			k := spanKey(c, hashes, epoch, &gen, p)
			if e, ok := bc.Lookup(k); ok {
				seed.Hits++
				if e.LB > tb {
					tb = e.LB
				}
			} else {
				seed.Misses++
				if d, ok := run.solveSpan(p, v-c.Forced[p]); ok {
					bc.Insert(k, &boundcache.Entry{LB: d})
					if d > tb {
						tb = d
					}
				}
			}
		}
		if e := tb - c.Forced[p]; e > 0 {
			extra[p] = e
		}
	}
	sc.stack = run.stack[:0]
	sc.exm = run.exm[:0]

	seed.RootLB = lbc[c.RootPos]
	if e := seed.RootLB - c.Forced[c.RootPos]; e > 0 {
		extra[c.RootPos] = e
	}
	seed.Extra = extra
	seed.Explored = res.Explored
	seed.Pruned = res.Pruned
	seed.BudgetHit = run.budgetHit
	seed.Err = run.ctxErr
	return seed
}

// solveSpan runs the standalone branch-and-bound of the subtree at p —
// parent hosted, sinking allowed (p is never the global root here) —
// and returns its exact optimal delay. rootExtra seeds the stack's
// prefix maximum with p's own static floor so a tight baseline can
// prune the root node itself. ok is false when the budget or deadline
// expired first; nothing is then proven and the caller falls back to
// the static floor.
func (r *bnbRun) solveSpan(p int32, rootExtra float64) (float64, bool) {
	if r.budgetHit || r.ctxErr != nil {
		return 0, false
	}
	c := r.c
	start, end := c.Start[p], p+1

	// Closed-form baselines: everything hosted (the span's sensors load
	// their satellites, every CRU's time lands on the host) and the
	// whole subtree sunk. loads is all-zero between sub-solves (the
	// search restores it exactly), so the per-satellite sums are exact;
	// they are re-zeroed explicitly because x+u-u need not be x.
	hostAdd := 0.0
	for q := start; q < end; q++ {
		if c.Proc[q] {
			hostAdd += c.HostTime[q]
		} else {
			r.loads[c.Sensor[q]] += c.UpComm[q]
		}
	}
	r.bestDelay = min(hostAdd+maxOf(r.loads), c.SubSat[p]+c.UpComm[p])
	for q := start; q < end; q++ {
		if !c.Proc[q] {
			r.loads[c.Sensor[q]] = 0
		}
	}

	r.hostTime = 0
	r.forcedRemaining = c.Forced[p]
	spanRemaining(c, r.sc.w, r.rem, p)
	r.stack = append(r.stack[:0], p)
	if rootExtra < 0 {
		rootExtra = 0
	}
	r.exm = append(r.exm[:0], rootExtra)
	r.dfs()
	r.stack = r.stack[:0]
	r.exm = r.exm[:0]
	if r.budgetHit || r.ctxErr != nil {
		return 0, false
	}
	return r.bestDelay, true
}

// spanKey builds subtree p's cache key: its Merkle hash and the boundary
// context — how many distinct satellites and maximal same-satellite leaf
// runs sit under p. epoch/gen implement an O(leaves) distinct count
// without clearing between calls.
func spanKey(c *model.Compiled, hashes [][32]byte, epoch []int32, gen *int32, p int32) boundcache.Key {
	k := boundcache.Key{Hash: hashes[c.Post[p]]}
	lo, hi := c.LeafLo[p], c.LeafHi[p]
	if lo < 0 || hi < lo || int(hi) >= len(c.Leaves) {
		return k
	}
	*gen++
	g := *gen
	prev := model.NoSatellite
	for i := lo; i <= hi; i++ {
		s := c.Sensor[c.Leaves[i]]
		if s != prev {
			k.Bands++
			prev = s
		}
		if epoch[s] != g {
			epoch[s] = g
			k.Sats++
		}
	}
	return k
}
