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
// per-subtree pruning extras, a tightened root lower bound, and — when
// the whole instance was proven by an earlier solve — the complete
// answer.
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
	// RootKey is the instance's own cache key (Merkle root, Root
	// context); a completed search inserts its proof under it.
	RootKey boundcache.Key
	// RootEntry, when non-nil, is a complete entry for the whole
	// instance: the optimum is RootEntry.LB and RootEntry.Pattern
	// reconstructs it — no search is needed.
	RootEntry *boundcache.Entry

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
// boundcache.MinSpan — either replays its proven standalone bound from the
// cache or is solved standalone right here (a bounded branch-and-bound
// of just that span, itself pruned by the extras already proven for its
// descendants) and the proof inserted. Smaller subtrees get a static
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

	var e *boundcache.Entry
	var complete bool
	seed.RootKey, e, complete = lookupRoot(c, hashes, epoch, &gen, bc)
	cachedRoot := 0.0
	if e != nil {
		seed.Hits++
		if complete {
			seed.RootEntry = e
			seed.RootLB = e.LB
			return seed
		}
		cachedRoot = e.LB
	} else {
		seed.Misses++
	}

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
			k := spanKey(c, hashes, epoch, &gen, p, false)
			if e, ok := bc.Lookup(k); ok {
				seed.Hits++
				if e.LB > tb {
					tb = e.LB
				}
			} else {
				seed.Misses++
				if d, ok := run.solveSpan(p, v-c.Forced[p]); ok {
					bc.Insert(k, &boundcache.Entry{LB: d, Complete: true})
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

	rootLB := lbc[c.RootPos]
	if cachedRoot > rootLB {
		rootLB = cachedRoot
	}
	seed.RootLB = rootLB
	if e := rootLB - c.Forced[c.RootPos]; e > 0 {
		extra[c.RootPos] = e
	}
	seed.Extra = extra
	seed.Explored = res.Explored
	seed.Pruned = res.Pruned
	seed.BudgetHit = run.budgetHit
	seed.Err = run.ctxErr
	return seed
}

// RecordRoot inserts a completed search's whole-instance proof — the
// optimal locations and their delay — under the pre-pass's root key, so
// the next solve of the same instance is a cache hit. The pattern is
// colour-relative — one sunk bit per position — so it replays onto any
// structurally identical tree.
func (seed *BoundSeed) RecordRoot(bc *boundcache.Cache, c *model.Compiled, best []model.Location, d float64) {
	pat := make([]bool, c.Len())
	for q := range pat {
		pat[q] = !c.Proc[q] || best[q] != model.Host
	}
	bc.Insert(seed.RootKey, &boundcache.Entry{LB: d, Complete: true, Pattern: pat})
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

// RootProven reports whether bc holds a complete proof of t's whole
// instance, which a memoized exact search replays without exploring a
// node.
func RootProven(t *model.Tree, bc *boundcache.Cache) bool {
	c := model.Compile(t)
	var gen int32
	_, _, complete := lookupRoot(c, model.SubtreeHashes(t), make([]int32, c.NumSats), &gen, bc)
	return complete
}

// lookupRoot looks up the whole instance's entry: its key, the entry (nil
// on a miss), and whether the entry is complete — the optimum with the
// pattern that reconstructs it.
func lookupRoot(c *model.Compiled, hashes [][32]byte, epoch []int32, gen *int32, bc *boundcache.Cache) (boundcache.Key, *boundcache.Entry, bool) {
	k := spanKey(c, hashes, epoch, gen, c.RootPos, true)
	e, ok := bc.Lookup(k)
	return k, e, ok && e.Complete && len(e.Pattern) == c.Len()
}

// spanKey builds subtree p's cache key: its Merkle hash, the root
// context bit, and the boundary context — how many distinct satellites
// and maximal same-satellite leaf runs sit under p. epoch/gen implement
// an O(leaves) distinct count without clearing between calls.
func spanKey(c *model.Compiled, hashes [][32]byte, epoch []int32, gen *int32, p int32, root bool) boundcache.Key {
	k := boundcache.Key{Hash: hashes[c.Post[p]], Root: root}
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

// applyPattern replays a root entry's pattern onto loc (pre-filled with
// BaseLocations): sunk CRUs go to their own subtree colour, which is
// uniform over a sunk monochromatic region, so the pattern is
// position-local and valid across structurally identical trees.
func applyPattern(c *model.Compiled, loc []model.Location, pat []bool) {
	for q, sunk := range pat {
		if sunk && c.Proc[q] {
			loc[q] = model.OnSatellite(c.Colour[q])
		}
	}
}
