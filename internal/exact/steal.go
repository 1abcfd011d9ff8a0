package exact

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/pool"
)

// Work-stealing branch-and-bound: above one worker, the search of
// BranchAndBoundOpts runs on several goroutines over the same decision
// tree. A partial search state (bnbState) is a self-contained, stealable
// frame. Each worker runs the sequential depth-first search over its
// current frame, forking the second branch of a decision onto its own
// deque whenever the deque runs dry; idle workers steal the oldest
// (largest-subtree) frame from a victim. With one worker none of this
// exists — no goroutine, deque or frame — and the search is the plain
// sequential recursion.
//
// Exactness under concurrency comes from the incumbent protocol: the
// best known delay lives in one atomic word (IEEE-754 bits, tightened by
// compare-and-swap), so the instant any worker improves it every other
// worker's bound test — re-evaluated at every search node — prunes
// against the new value. Pruning only ever removes provably
// non-improving branches, so a completed search returns the sequential
// solver's optimal delay up to rounding. Backtracking writes saved
// accumulator values back, so a node's bound terms depend only on its
// path and a frame snapshot holds exactly what the sequential search
// holds there; only which of several co-optimal assignments is reported
// — and so the last bits of its delay — may differ.

// framePool keeps frames on per-P striped free lists so fork/release
// cycles allocate nothing in steady state even with every core forking.
var framePool = pool.NewStriped(func() *bnbState { return new(bnbState) })

const (
	// lowWater: a worker forks the second branch of a decision onto its
	// deque only while the deque is shorter than this, so steady-state
	// search runs the plain sequential recursion with no synchronisation.
	lowWater = 4
	// exploredStride is how many nodes a worker explores between flushes
	// of its local counter into the shared budget counter.
	exploredStride = 64
	// ctxStride is how many nodes a worker explores between context
	// polls (matches the sequential search's &0xff cadence).
	ctxStride = 256
)

// search is the state shared by the workers of one run.
type search struct {
	// top is the solve's own run: its best/bestDelay/onBetter hold the
	// published incumbent, under incMu.
	top *bnbRun

	// bound is the incumbent delay as IEEE-754 bits, tightened by CAS.
	// Every worker prunes against it at every node, so an improvement on
	// one core cuts the search on all of them within a few instructions.
	bound    atomic.Uint64
	explored atomic.Int64
	pruned   atomic.Int64
	maxNodes int64

	stop      atomic.Bool
	budgetHit atomic.Bool
	errMu     sync.Mutex
	err       error // first context error, under errMu

	// incMu serialises incumbent storage and streaming: the CAS above
	// makes pruning fast, this mutex makes the best assignment and the
	// OnIncumbent stream consistent and strictly improving.
	incMu sync.Mutex

	// Deques of stealable frames, one per worker, all under one mutex:
	// owners pop their own tail (depth-first order), thieves take a
	// victim's head (the largest remaining subtrees). Frames are rare —
	// they exist only while some deque is near-empty — so one lock is
	// cheaper than per-deque protocols and makes the empty+pending==0
	// termination test race-free.
	mu      sync.Mutex
	cond    *sync.Cond
	deques  [][]*bnbState
	pending int          // frames queued or being searched, under mu
	queued  atomic.Int64 // frames queued, for the fork heuristic
	dlen    []atomic.Int32
	maxLive int64
}

// steal runs the top-level search r on nw workers and folds their
// counters and stop state back into r.
func (r *bnbRun) steal(nw int) {
	s := &search{
		top:      r,
		maxNodes: int64(r.maxNodes),
		deques:   make([][]*bnbState, nw),
		dlen:     make([]atomic.Int32, nw),
		maxLive:  int64(64 * nw),
	}
	s.cond = sync.NewCond(&s.mu)
	s.bound.Store(math.Float64bits(r.bestDelay))
	s.explored.Store(int64(r.res.Explored))
	s.pruned.Store(int64(r.res.Pruned))

	// The root frame is the whole search.
	s.pending = 1
	s.deques[0] = append(s.deques[0], s.fork(&r.bnbState))
	s.dlen[0].Add(1)
	s.queued.Add(1)

	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.work(id)
		}(i)
	}
	wg.Wait()
	// A halted run leaves unexplored frames behind; recycle them.
	for _, d := range s.deques {
		for _, f := range d {
			framePool.Put(f)
		}
	}
	r.res.Explored = int(s.explored.Load())
	r.res.Pruned = int(s.pruned.Load())
	r.budgetHit = s.budgetHit.Load()
	r.ctxErr = s.err
}

// work is one worker goroutine: take a frame, search it to exhaustion
// (forking branches for hungry peers along the way), repeat. The run's
// Result holds only this worker's counters, flushed on exit.
func (s *search) work(id int) {
	top := s.top
	r := &bnbRun{
		ctx: top.ctx, c: top.c, res: &Result{}, sc: top.sc,
		shared: s, id: int32(id), est: s.explored.Load(),
	}
	for {
		f := s.take(id)
		if f == nil {
			break
		}
		r.bnbState = *f
		r.dfs()
		*f = r.bnbState // the frame keeps any buffer growth
		s.release(f)
	}
	if rem := r.res.Explored & (exploredStride - 1); rem != 0 {
		s.explored.Add(int64(rem))
	}
	if r.res.Pruned != 0 {
		s.pruned.Add(int64(r.res.Pruned))
	}
}

// improve publishes a complete assignment of delay d: the atomic bound is
// tightened first so every worker prunes against d immediately, then the
// assignment is stored and streamed under incMu. Losing a CAS race to a
// better delay abandons the publish — the better solution is already (or
// about to be) stored by its finder.
func (s *search) improve(loc []model.Location, d float64) {
	for {
		cur := s.bound.Load()
		if d >= math.Float64frombits(cur) {
			return
		}
		if s.bound.CompareAndSwap(cur, math.Float64bits(d)) {
			break
		}
	}
	s.incMu.Lock()
	if top := s.top; d < top.bestDelay {
		top.bestDelay = d
		storeLocs(top.c, top.sc.best, loc)
		top.onBetter(int(s.explored.Load()))
	}
	s.incMu.Unlock()
}

// halt asks every worker to unwind: the first context error wins, later
// ones (and budget halts, which pass nil) keep it. The broadcast happens
// with mu held so a thief between its stop check and cond.Wait cannot
// miss the wakeup.
func (s *search) halt(err error) {
	if err != nil {
		s.errMu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.errMu.Unlock()
	}
	s.mu.Lock()
	s.stop.Store(true)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// enter is a worker's per-node prologue. A split entry publishes the
// state as a frame instead of searching it. Otherwise the node is
// counted: the shared explored counter is flushed every exploredStride
// nodes and the context polled every ctxStride, while the budget is
// tested every node against the worker's running estimate (shared total
// at the last flush plus local nodes since), at most a stride per peer
// stale. Finally the shared incumbent is read for the bound test. It
// reports whether the node is to be searched.
func (s *search) enter(r *bnbRun) bool {
	if r.split {
		r.split = false
		s.publish(r)
		return false
	}
	r.res.Explored++
	n := r.res.Explored
	r.est++
	if n&(exploredStride-1) == 0 {
		r.est = s.explored.Add(exploredStride)
		if n&(ctxStride-1) == 0 {
			if err := r.ctx.Err(); err != nil {
				s.halt(err)
				return false
			}
		}
	}
	if r.est > s.maxNodes {
		s.budgetHit.Store(true)
		s.halt(nil)
		return false
	}
	r.bestDelay = math.Float64frombits(s.bound.Load())
	return !s.stop.Load()
}

// fork snapshots st into a fresh pooled frame.
func (s *search) fork(st *bnbState) *bnbState {
	f := framePool.Get()
	f.loc = append(f.loc[:0], st.loc...)
	f.stack = append(f.stack[:0], st.stack...)
	f.loads = append(f.loads[:0], st.loads...)
	f.rem = append(f.rem[:0], st.rem...)
	f.hostTime = st.hostTime
	f.forcedRemaining = st.forcedRemaining
	return f
}

// publish queues a snapshot of worker r's state — the state on entry
// to the branch it was about to search — on r's own deque.
func (s *search) publish(r *bnbRun) {
	f := s.fork(&r.bnbState)
	s.mu.Lock()
	s.pending++
	s.deques[r.id] = append(s.deques[r.id], f)
	s.dlen[r.id].Add(1)
	s.queued.Add(1)
	s.cond.Signal()
	s.mu.Unlock()
}

// shouldSplit decides whether to fork the second branch of the current
// decision: only while the worker's own deque is hungry and the global
// frame population is bounded, so deep searches do not snapshot the state
// at every node.
func (s *search) shouldSplit(id int) bool {
	return int(s.dlen[id].Load()) < lowWater && s.queued.Load() < s.maxLive
}

// take returns the next frame for worker id — its own newest frame, else
// the oldest frame of the first non-empty victim — or nil when the search
// is over (every frame fully explored, or a stop was requested).
func (s *search) take(id int) *bnbState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stop.Load() {
			return nil
		}
		if d := s.deques[id]; len(d) > 0 {
			f := d[len(d)-1]
			d[len(d)-1] = nil
			s.deques[id] = d[:len(d)-1]
			s.dlen[id].Add(-1)
			s.queued.Add(-1)
			return f
		}
		for i := 1; i < len(s.deques); i++ {
			v := (id + i) % len(s.deques)
			if d := s.deques[v]; len(d) > 0 {
				f := d[0]
				copy(d, d[1:])
				d[len(d)-1] = nil
				s.deques[v] = d[:len(d)-1]
				s.dlen[v].Add(-1)
				s.queued.Add(-1)
				return f
			}
		}
		if s.pending == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

// release retires a fully searched frame. The last release wakes every
// waiting thief so they can observe termination.
func (s *search) release(f *bnbState) {
	framePool.Put(f)
	s.mu.Lock()
	s.pending--
	if s.pending == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}
