package exact

import (
	"context"
	"math"

	"repro/internal/boundcache"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/pool"
)

// BranchAndBound is the branch-and-bound search the paper's §6 proposes as
// future work, implemented over the same decision tree as BruteForce (host
// vs. sink-whole-subtree per monochromatic CRU) with three techniques:
//
//   - bound: partial host time + the host time of undecided CRUs that can
//     never leave the host + the largest per-colour term is a lower bound
//     on any completion, so branches at or above the incumbent are cut.
//     Colour c's term is its committed satellite load plus rem[c], a
//     floor on the host time plus colour-c load that the pending subtrees
//     of colour c must still add. The floor relaxes the coupling between
//     colours (the HS-CAI idea of bounding a depth-first search by a
//     relaxation): a pending sensor adds at least its uplink, a pending
//     monochromatic CRU at least the smaller of sinking it whole and
//     hosting it above its children's floors (colourFloors). rem is
//     updated in O(1) per decision;
//   - seeding: the incumbent starts at the best of all-host, maximal
//     distribution and the warm hint (BnBOptions.Warm), if any, rather
//     than +∞. The search computes no seed of its own;
//   - ordering: at each CRU the branch with the smaller immediate
//     objective increase is explored first, so good incumbents appear
//     early.
//
// The search runs entirely against the tree's compiled plan: the
// must-host bounds table (Compiled.Forced) is indexed by post-order
// position and precomputed per revision, the colour floors are computed
// once per solve into pooled scratch, a subtree sink marks only the sunk
// CRU in the flat location vector (its span is filled in when an
// incumbent is stored), satellite loads live in a dense pooled array,
// and incumbents are evaluated with the flat kernel — the hot loop
// performs no allocation and no pointer chasing. Every accumulator (host
// time, forced remainder, loads, rem) is restored by writing its saved
// value back, so backtracking is bit-exact even when one weight dwarfs
// the rest. BranchAndBoundPointer is the original node-walking
// implementation with the same bound, retained for parity tests.
//
// An optional fourth technique is bound memoization (BnBOptions.Bounds):
// proven standalone lower bounds of whole subtrees, keyed by their
// Merkle hashes, join the bound as per-stack-entry extras (combined with
// the per-colour terms by taking the max), and subtrees whose hashes
// were proven in a previous solve are not searched at all. Without a
// cache handle the search is bit-identical to BranchAndBoundPointer —
// same traversal, same explored count — which is what the
// pointer/compiled parity tests pin.
//
// The same search also runs work-stealing across several workers
// (BnBOptions.Workers, see steal.go); one worker is this sequential
// search, node for node.
//
// This is the plain search. The registered "branch-and-bound" and
// "parallel-bnb" run it only where the Pareto DP cannot prove the
// optimum first (see bnbSolver); the parity suites pin this one.
//
// maxNodes caps the number of search nodes (0 means 1<<22).
func BranchAndBound(t *model.Tree, maxNodes int) (*Result, error) {
	return BranchAndBoundContext(context.Background(), t, maxNodes)
}

// BranchAndBoundContext is BranchAndBound with cancellation: the context is
// checked every few hundred search nodes. On cancellation the returned
// error is the context's.
func BranchAndBoundContext(ctx context.Context, t *model.Tree, maxNodes int) (*Result, error) {
	return BranchAndBoundFrom(ctx, t, maxNodes, nil)
}

// bnbScratch is the pooled working set of one branch-and-bound (or
// brute-force) run: the partial and incumbent location vectors, the dense
// per-satellite load and remaining-floor tables, the per-position colour
// floors (and PrepareBounds' static subtree floors), the DFS stack and
// its extras prefix-maximum.
type bnbScratch struct {
	loc, best, seed []model.Location
	loads, rem      []float64
	w, lbc          []float64
	stack           []int32
	exm             []float64
}

var bnbScratches = pool.NewArena(func() *bnbScratch { return new(bnbScratch) })

// BranchAndBoundFrom is BranchAndBoundContext with a warm incumbent: warm,
// when non-nil and feasible, joins the baseline seeds, so a near-optimal
// prior solution (the incremental engine projects the previous revision's
// outcome onto the mutated tree) makes the very first bound nearly tight
// and prunes most of the search. The result is still exact — seeding only
// ever tightens the incumbent, and ties keep the seed itself.
func BranchAndBoundFrom(ctx context.Context, t *model.Tree, maxNodes int, warm *model.Assignment) (*Result, error) {
	return BranchAndBoundOpts(ctx, t, BnBOptions{MaxNodes: maxNodes, Warm: warm})
}

// BnBOptions parameterises one anytime branch-and-bound run.
type BnBOptions struct {
	// MaxNodes caps the number of search nodes (0 means 1<<22). Above one
	// worker the cap is enforced in per-worker strides, so the final
	// explored count may overshoot by a few strides per worker.
	MaxNodes int
	// Warm optionally seeds the incumbent (see BranchAndBoundFrom).
	Warm *model.Assignment
	// OnIncumbent, when set, receives every incumbent improvement with a
	// freshly cloned assignment and the global lower bound. Calls are
	// serialised and strictly decreasing in Delay at every worker count.
	OnIncumbent func(core.Incumbent)
	// BestEffort returns the incumbent with Result.Partial set — instead
	// of ErrBudget or the context error — when the node budget or the
	// deadline expires. The incumbent is always feasible (the baselines
	// seed it before the search starts).
	BestEffort bool
	// Bounds attaches the bound-memoization cache: proven standalone
	// subtree optima tighten the pruning bound, and the pre-pass records
	// the subtrees it proves for the next solve. Purely advisory — the
	// returned delay is unchanged (property-tested), only the explored
	// node count shrinks — so the serving layers exclude it from cache
	// identity. Nil disables memoization and the search is bit-identical
	// to the plain solver.
	Bounds *boundcache.Cache
	// Workers is the number of concurrent search workers; 0 or 1 runs
	// the sequential search. The count never changes the returned delay
	// beyond rounding — only the wall time and which of several
	// co-optimal assignments is reported.
	Workers int
}

// bnbState is the working state of one depth-first search: the partial
// location vector, the decision stack, the per-satellite loads and
// remaining colour floors, the running prefix maximum of memoized extras
// along the stack, and the two incremental host-time bound terms. A
// stealable frame of the work-stealing search is a pooled snapshot of it.
type bnbState struct {
	// loc holds the decision marks: a decided CRU's own location, every
	// other position its base location (CRUs hosted, sensors on their
	// satellites). A sunk CRU's descendants stay at base; storeLocs fills
	// its span in when an incumbent is stored.
	loc   []model.Location
	stack []int32
	loads []float64
	// rem[s] is the sum of the colour floors (bnbScratch.w) of the
	// pending positions of colour s: those on the stack, and those a
	// must-host CRU on the stack is certain to push.
	rem []float64
	// exm[i] is the maximum of extra over stack[:i+1], maintained
	// push-for-push with the stack; empty when bound memoization is off,
	// leaving the bound exactly hostTime + forced + the per-colour term.
	exm             []float64
	hostTime        float64
	forcedRemaining float64
}

// bnbRun is one depth-first branch-and-bound: over the whole tree for a
// top-level solve, over a single subtree span for the memoization
// pre-pass's standalone sub-solves, or over stolen frames for one worker
// of the work-stealing search. Runs belonging to one sequential solve
// share the explored/pruned counters, the node budget and the pooled
// scratch vectors. The field order keeps a run within the 288-byte
// allocation size class.
type bnbRun struct {
	bnbState
	ctx      context.Context
	c        *model.Compiled
	res      *Result // Explored/Pruned accumulate here (per worker when shared)
	maxNodes int
	ctxErr   error

	// sc holds the colour floors w the bound reads and, for the
	// top-level run, the incumbent locations best.
	sc *bnbScratch
	// extra[p] is subtree p's proven standalone lower bound minus
	// Forced[p] — the part of its future cost the forced-host term
	// cannot see. Nil when bound memoization is off.
	extra []float64

	// bestDelay is the delay a branch must beat: the run's own incumbent,
	// or for a worker the shared one as read on entry to the node.
	bestDelay float64
	// onBetter publishes res.Delay and streams the incumbent. It is set
	// on the top-level run only, which alone stores its incumbents in
	// sc.best: a pre-pass sub-solve needs just its optimal delay.
	onBetter func(work int)

	// shared is the work-stealing search this run is one worker of; nil
	// for the sequential search, which then never forks a frame.
	shared    *search
	est       int64 // estimated global explored: shared count at last flush + local since
	id        int32 // the worker's deque
	budgetHit bool
	split     bool // the next dfs entry publishes its state as a frame
}

// storeLocs copies the decision marks loc of a complete assignment into
// best and fills in every sunk span: one descending pass meets each
// topmost sunk CRU before its descendants and skips its span.
func storeLocs(c *model.Compiled, best, loc []model.Location) {
	copy(best, loc)
	for q := int32(len(loc)) - 1; q >= 0; q-- {
		if c.Proc[q] && best[q] != model.Host {
			c.FillSpan(best, q, best[q])
			q = c.Start[q]
		}
	}
}

// pushExtra appends extra e to the prefix-maximum stack exm.
func pushExtra(exm []float64, e float64) []float64 {
	if n := len(exm); n > 0 && exm[n-1] > e {
		e = exm[n-1]
	}
	return append(exm, e)
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// colourFloors fills w[p], for every position p that may leave the host
// — a sensor or a non-root monochromatic CRU — with a floor on the host
// time plus colour-Colour[p] satellite load that the subtree at p adds
// once its parent is hosted: a sensor's uplink; for a CRU the smaller of
// sinking it whole and hosting it above its children's floors. Must-host
// CRUs get 0: their host time is already in Forced. One ascending pass,
// children before parents.
func colourFloors(c *model.Compiled, w []float64) {
	for p := int32(0); p < int32(len(w)); p++ {
		switch {
		case !c.Proc[p]:
			w[p] = c.UpComm[p]
		case c.MustHost[p]:
			w[p] = 0
		default:
			v := c.HostTime[p]
			for _, ch := range c.Children(p) {
				v += w[ch]
			}
			if s := c.SubSat[p] + c.UpComm[p]; s < v {
				v = s
			}
			w[p] = v
		}
	}
}

// spanRemaining fills rem with the per-colour floors pending at the start
// of a search of p's span: p itself unless it is must-host, and every
// child of a must-host CRU in the span that may leave the host — a
// must-host CRU is always hosted, so its children are certain to be
// pushed.
func spanRemaining(c *model.Compiled, w, rem []float64, p int32) {
	clear(rem)
	for q := c.Start[p]; q <= p; q++ {
		if c.MustHost[q] {
			continue
		}
		if q == p || c.MustHost[c.Parent[q]] {
			rem[c.Colour[q]] += w[q]
		}
	}
}

// dfs is the search recursion, identical to BranchAndBoundPointer when
// extra == nil (the parity tests pin its traversal), with the memoized
// extras folded into the bound otherwise. The stack uses
// explicit push/pop discipline (see BruteForce for why re-sliced
// frontier arguments would alias). A worker of the work-stealing search
// differs in three places only: its node prologue (search.enter), how
// it publishes a better assignment, and that it may split a decision,
// publishing the second branch as a frame instead of searching it.
func (r *bnbRun) dfs() {
	if r.shared != nil {
		if !r.shared.enter(r) {
			return
		}
	} else {
		if r.budgetHit || r.ctxErr != nil {
			return
		}
		r.res.Explored++
		if r.res.Explored > r.maxNodes {
			r.budgetHit = true
			return
		}
		if r.res.Explored&0xff == 0 {
			if err := r.ctx.Err(); err != nil {
				r.ctxErr = err
				return
			}
		}
	}
	c := r.c
	// One pass over the satellites yields the largest committed load and
	// the largest per-colour term: committed load plus remaining floor.
	load, lower := 0.0, 0.0
	rem := r.rem[:len(r.loads)]
	for s, v := range r.loads {
		if v > load {
			load = v
		}
		if b := v + rem[s]; b > lower {
			lower = b
		}
	}
	if n := len(r.exm); n > 0 && r.exm[n-1] > lower {
		// Some pending subtree is proven to add more delay than any
		// committed satellite carries yet.
		lower = r.exm[n-1]
	}
	if bound := r.hostTime + r.forcedRemaining + lower; bound >= r.bestDelay {
		r.res.Pruned++
		return // cannot beat the incumbent
	}
	if len(r.stack) == 0 {
		// Complete assignment; the committed terms are now exact.
		if d := r.hostTime + load; d < r.bestDelay {
			if r.shared != nil {
				r.shared.improve(r.loc, d)
				return
			}
			r.bestDelay = d
			if r.onBetter != nil {
				storeLocs(c, r.sc.best, r.loc)
				r.onBetter(r.res.Explored)
			}
		}
		return
	}
	p := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	if r.extra != nil {
		r.exm = r.exm[:len(r.exm)-1]
	}
	// Every accumulator is restored by writing its saved value back,
	// never by subtracting: x+h-h need not equal x (with h ≫ x it can
	// lose x entirely), and a drifted term would prune wrongly.
	forced := r.forcedRemaining
	r.forcedRemaining -= c.Forced[p]
	// A position that may leave the host takes its floor out of its
	// colour's remainder; must-host CRUs were never in it.
	col, colRem := model.NoSatellite, 0.0
	if !c.MustHost[p] {
		col = c.Colour[p]
		colRem = r.rem[col]
		r.rem[col] -= r.sc.w[p]
	}
	defer func() { // restore for the caller
		r.stack = append(r.stack, p)
		if r.extra != nil {
			r.exm = pushExtra(r.exm, r.extra[p])
		}
		r.forcedRemaining = forced
		if col != model.NoSatellite {
			r.rem[col] = colRem
		}
	}()

	if !c.Proc[p] {
		// Sensor whose parent is hosted (sensors under sunk subtrees
		// are never on the stack): the raw frame crosses the uplink.
		s := c.Sensor[p]
		satLoad := r.loads[s]
		r.loads[s] += c.UpComm[p]
		r.dfs()
		r.loads[s] = satLoad
		return
	}

	sat := c.Colour[p]
	sinkable := sat != model.NoSatellite && p != c.RootPos
	kids := c.Children(p)
	// Locals (the vectors are never reallocated mid-search) keep sink
	// cheap enough for the compiler to inline. A sink marks p alone; the
	// descendants it takes along are filled in only if an incumbent is
	// stored below it.
	loads, loc := r.loads, r.loc
	sink := func() {
		satLoad := loads[sat]
		loads[sat] += c.SubSat[p] + c.UpComm[p]
		loc[p] = model.OnSatellite(sat)
		r.dfs()
		loc[p] = model.Host
		loads[sat] = satLoad
	}
	host := func() {
		savedHost, savedForced := r.hostTime, r.forcedRemaining
		r.hostTime += c.HostTime[p]
		r.loc[p] = model.Host
		r.stack = append(r.stack, kids...)
		// Children re-enter the forced estimate individually.
		for _, ch := range kids {
			r.forcedRemaining += c.Forced[ch]
		}
		// The children of a hosted monochromatic CRU become pending in
		// its colour; a must-host CRU's were counted from the start.
		satRem := 0.0
		if sinkable {
			satRem = r.rem[sat]
			for _, ch := range kids {
				r.rem[sat] += r.sc.w[ch]
			}
		}
		if r.extra != nil {
			for _, ch := range kids {
				r.exm = pushExtra(r.exm, r.extra[ch])
			}
		}
		r.dfs()
		r.hostTime, r.forcedRemaining = savedHost, savedForced
		if sinkable {
			r.rem[sat] = satRem
		}
		r.stack = r.stack[:len(r.stack)-len(kids)]
		if r.extra != nil {
			r.exm = r.exm[:len(r.exm)-len(kids)]
		}
	}
	if !sinkable {
		host()
		return
	}
	// Explore the branch with the smaller immediate objective increase
	// first so strong incumbents appear early.
	sinkFirst := max(load, r.loads[sat]+c.SubSat[p]+c.UpComm[p])-load <= c.HostTime[p]
	if r.shared != nil && r.shared.shouldSplit(int(r.id)) {
		// A hungry deque: enter the second branch first, with split set,
		// so it is published as a frame; then search the first in-line.
		r.split = true
		sinkFirst = !sinkFirst
	}
	if sinkFirst {
		sink()
		host()
	} else {
		host()
		sink()
	}
}

// BranchAndBoundOpts is the anytime entry point: BranchAndBoundFrom plus
// incumbent streaming, best-effort deadline handling, bound memoization
// and the worker count.
func BranchAndBoundOpts(ctx context.Context, t *model.Tree, opts BnBOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxNodes := core.IntOr(opts.MaxNodes, 1<<22)
	warm := opts.Warm
	c := model.Compile(t)
	n := c.Len()
	res := &Result{Delay: math.Inf(1)}

	// The memoization pre-pass runs first, sequentially at every width:
	// the per-subtree extras it proves (or reads from previous solves)
	// arm the bound below.
	var seed *BoundSeed
	if opts.Bounds != nil {
		seed = PrepareBounds(ctx, t, opts.Bounds, maxNodes)
		res.Explored = seed.Explored
		res.Pruned = seed.Pruned
		res.BoundHits, res.BoundMisses = seed.Hits, seed.Misses
	}

	sc := bnbScratches.Get()
	defer bnbScratches.Put(sc)
	fr := eval.GetFrame()
	defer eval.PutFrame(fr)
	sc.loc = pool.Keep(sc.loc, n)
	sc.best = pool.Keep(sc.best, n)
	sc.seed = pool.Keep(sc.seed, n)
	sc.loads = pool.Slice(sc.loads, c.NumSats)
	sc.w = pool.Keep(sc.w, n)
	sc.rem = pool.Keep(sc.rem, c.NumSats)
	colourFloors(c, sc.w)
	spanRemaining(c, sc.w, sc.rem, c.RootPos)

	run := &bnbRun{
		bnbState: bnbState{loc: sc.loc, loads: sc.loads, rem: sc.rem},
		ctx:      ctx, c: c, res: res, maxNodes: maxNodes, sc: sc,
		bestDelay: math.Inf(1),
	}

	// The search's own bound at the root — the forced host time plus the
	// largest colour floor — is a valid lower bound on every completion,
	// which is what anytime consumers need to report a gap. The memoized
	// pre-pass may prove a tighter one, and a completed search replaces
	// it with the proven optimum. It is final before stream captures it.
	globalLB := c.Forced[c.RootPos] + maxOf(sc.rem)
	if seed != nil {
		run.extra = seed.Extra
		globalLB = math.Max(globalLB, seed.RootLB)
		run.budgetHit = seed.BudgetHit
		run.ctxErr = seed.Err
	}
	res.LowerBound = globalLB
	// stream clones the incumbent out to the callback. sc.best is pooled
	// scratch, so the callback gets a fresh Assignment it may keep.
	stream := func(work int) {
		if opts.OnIncumbent == nil {
			return
		}
		asg := model.NewAssignment(t)
		c.StoreAssignment(asg, sc.best)
		opts.OnIncumbent(core.Incumbent{
			Assignment: asg,
			Delay:      res.Delay,
			LowerBound: globalLB,
			Work:       work,
		})
	}

	// Seed the incumbent with the better of the two trivial baselines —
	// and the warm hint, when one is offered — so pruning bites from the
	// first branches.
	improve := func(loc []model.Location) {
		if d := eval.FlatDelay(c, loc, fr); d < run.bestDelay {
			run.bestDelay = d
			res.Delay = d
			copy(sc.best, loc)
			stream(res.Explored)
		}
	}
	c.TopmostLocations(sc.seed)
	improve(sc.seed)
	c.BaseLocations(sc.seed)
	improve(sc.seed)
	if warm != nil && warm.Validate(t) == nil {
		c.LoadLocations(sc.seed, warm)
		improve(sc.seed)
	}

	c.BaseLocations(sc.loc)
	run.forcedRemaining = c.Forced[c.RootPos]
	run.stack = append(sc.stack[:0], c.RootPos)
	if run.extra != nil {
		run.exm = append(sc.exm[:0], run.extra[c.RootPos])
	}
	run.onBetter = func(work int) {
		res.Delay = run.bestDelay
		stream(work)
	}
	if opts.Workers > 1 {
		run.steal(opts.Workers)
	} else {
		run.dfs()
	}
	sc.stack = run.stack[:0]
	if run.extra != nil {
		sc.exm = run.exm[:0]
	}
	if math.IsInf(res.Delay, 1) {
		// Cannot happen for valid trees (all-host is always feasible).
		if run.ctxErr != nil {
			return nil, run.ctxErr
		}
		return nil, ErrBudget
	}
	switch {
	case run.ctxErr != nil:
		if !opts.BestEffort {
			return nil, run.ctxErr
		}
		res.Partial = true
	case run.budgetHit:
		if !opts.BestEffort {
			return nil, ErrBudget
		}
		res.Partial = true
	default:
		// The search completed: the incumbent is the proven optimum.
		res.LowerBound = res.Delay
	}
	asg := model.NewAssignment(t)
	c.StoreAssignment(asg, sc.best)
	res.Assignment = asg
	return res, nil
}
