package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"weak"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/model"
	"repro/internal/pool"
)

// CacheStatus classifies how a Service call obtained its Outcome.
type CacheStatus = cache.Result

// CacheStatus values.
const (
	// CacheMiss: the call ran the solver.
	CacheMiss = cache.Miss
	// CacheHit: the Outcome came from the result cache.
	CacheHit = cache.Hit
	// CacheShared: the call joined a concurrent identical solve.
	CacheShared = cache.Shared
)

// CacheStats is a snapshot of the Service's cache counters.
type CacheStats = cache.Stats

// Service is the serving-layer wrapper around a Solver: it keys every
// solve by the canonical instance identity — Fingerprint(tree) plus the
// resolved algorithm, objective weights, seed and budget — and backs the
// Solver with a sharded LRU of Outcomes and singleflight deduplication,
// so N concurrent identical solves run once and repeats are cache hits.
//
// Outcomes returned on hits are shared between callers: treat them as
// immutable (clone the Assignment before mutating it). Solve errors are
// never cached; a failed instance is retried by the next request. The
// per-call timeout (WithTimeout) shapes quality of service, not the
// answer, so it is deliberately excluded from the cache key.
//
// Anytime requests (WithBestEffort, WithIncumbents) look up the store
// too. A hit streams one final incumbent, a caller-owned copy of the
// served assignment. A miss solves outside singleflight and stores its
// outcome only when it is Exact, never a Partial one; a warm-started
// non-exact solve does the same, so it never stores.
//
// A Service is safe for concurrent use; cmd/crserve exposes one over
// HTTP with the wire DTOs of package api.
type Service struct {
	solver *Solver
	cache  *cache.Cache

	// solve runs one uncached solve; a test seam defaulting to solveOne.
	solve func(ctx context.Context, t *Tree, cfg settings) (*Outcome, error)
}

// NewService wraps solver (nil means NewSolver()) with a result cache
// holding up to cacheSize Outcomes. cacheSize <= 0 disables the store but
// keeps singleflight deduplication of concurrent identical solves.
func NewService(solver *Solver, cacheSize int) *Service {
	if solver == nil {
		solver = NewSolver()
	}
	return &Service{solver: solver, cache: cache.New(cacheSize), solve: solveOne}
}

// Solver returns the wrapped Solver.
func (s *Service) Solver() *Solver { return s.solver }

// Stats returns a snapshot of the cache's hit/miss/shared counters.
func (s *Service) Stats() CacheStats { return s.cache.Stats() }

// Solve is Solver.Solve behind the cache: identical instances (same
// fingerprint and solve parameters) are answered from the store or, when
// already being solved concurrently, from the shared in-flight result.
func (s *Service) Solve(ctx context.Context, t *Tree, opts ...Option) (*Outcome, CacheStatus, error) {
	return s.solveCached(ctx, t, s.solver.settingsFor(opts))
}

// cachedSolve is what the cache stores: the Outcome, a weak reference to
// the tree it was solved on, and its assignment as a canonical placement
// (model.CanonicalPlacement). Fingerprints are canonical — trees with
// different NodeID/SatelliteID numberings share one — so a hit served to
// any other tree is rebuilt from the placement in the requester's
// numbering. The entry never keeps a tree, or its compiled plan and
// fingerprint memo, alive.
type cachedSolve struct {
	out       *Outcome
	tree      weak.Pointer[Tree]
	placement []int32
}

func (s *Service) solveCached(ctx context.Context, t *Tree, cfg settings) (*Outcome, CacheStatus, error) {
	if t == nil {
		return nil, CacheMiss, fmt.Errorf("%w: nil tree", ErrInvalidTree)
	}
	// The cache key is assembled into a pooled byte buffer and looked up
	// with the allocation-free byte path first: on a warm hit (the
	// steady-state serving regime) the whole call — fingerprint memo
	// read, key append, LRU lookup, delivery — allocates nothing. The
	// string key is materialised only when the request misses.
	kb := keyBufs.Get()
	kb.b = appendRequestKey(kb.b[:0], t, cfg)
	if v, ok := s.cache.GetBytes(kb.b); ok {
		cs := v.(*cachedSolve)
		if out, err := deliver(cs, t); err == nil {
			keyBufs.Put(kb)
			s.cache.RecordHit()
			if cfg.onIncumbent != nil {
				// The stream of a solve that ran elsewhere: one final
				// incumbent, which the caller owns.
				cfg.onIncumbent(Incumbent{
					Assignment: out.Assignment.Clone(),
					Delay:      out.Delay,
					LowerBound: out.LowerBound,
				})
			}
			return out, CacheHit, nil
		}
		// An entry that does not hold on this tree is dropped, and the
		// request goes on as a miss.
		s.cache.CompareAndDelete(string(kb.b), cs)
	}
	key := string(kb.b)
	keyBufs.Put(kb)
	if solvesOutsideFlight(cfg) {
		s.cache.RecordMiss()
		out, err := s.solve(ctx, t, cfg)
		if err != nil {
			return nil, CacheMiss, err
		}
		if out.Exact {
			s.cache.Put(key, newCachedSolve(out, t))
		}
		return out, CacheMiss, nil
	}
	return s.solveMiss(ctx, t, cfg, key)
}

// solvesOutsideFlight reports whether a miss must solve on its own,
// outside singleflight, keeping only an Exact outcome. A best-effort
// outcome is deadline-shaped, and a Partial one must never be stored or
// served as the instance's answer; an incumbent callback is a side
// effect a joined flight would silently skip; and a warm-started
// non-exact solve is start-dependent, so its result must not leak a
// warmed local optimum into cold requests under the same key. A warm
// hint on an exact solver, or on one that drops it, changes no answer
// and keeps the flight path (the hint is excluded from the key).
func solvesOutsideFlight(cfg settings) bool {
	if cfg.bestEffort || cfg.onIncumbent != nil {
		return true
	}
	if cfg.warm == nil {
		return false
	}
	caps, ok := Capability(cfg.algorithm)
	return ok && caps.WarmStart && !caps.Exact
}

// newCachedSolve is the store entry of out, solved on t.
func newCachedSolve(out *Outcome, t *Tree) *cachedSolve {
	return &cachedSolve{out: out, tree: weak.Make(t), placement: model.CanonicalPlacement(t, out.Assignment)}
}

// solveMiss runs the singleflight/store path of solveCached. It is a
// separate method so the flight closure's captures live here: capturing
// cfg inside solveCached would force the settings onto the heap on every
// call, including warm hits that never reach the closure.
func (s *Service) solveMiss(ctx context.Context, t *Tree, cfg settings, key string) (*Outcome, CacheStatus, error) {
	// A shared flight can fail with the *leader's* cancellation — its
	// tight deadline or disconnect, nothing to do with this caller. As
	// long as our own context is alive, retry: the key is unclaimed
	// again, so the retry becomes leader and solves under our
	// constraints. Deterministic failures (unknown algorithm, budget
	// exhaustion) are shared as-is — retrying those would amplify the
	// very stampede singleflight absorbs — and the retry is bounded so
	// fast-failing leaders cannot spin a waiter forever.
	//
	// A hit here is an entry stored since the caller's lookup; one that
	// does not hold on this tree is dropped and the key solved again,
	// within the same bound.
	for attempt := 0; ; attempt++ {
		v, how, err := s.cache.Do(ctx, key, func() (any, error) {
			out, err := s.solve(ctx, t, cfg)
			if err != nil {
				return nil, err
			}
			return newCachedSolve(out, t), nil
		})
		if err != nil {
			if how == CacheShared && attempt < 2 && ctx.Err() == nil && canceledElsewhere(err) {
				continue
			}
			return nil, how, err
		}
		cs := v.(*cachedSolve)
		out, err := deliver(cs, t)
		if err != nil {
			if how == CacheHit && attempt < 2 {
				s.cache.CompareAndDelete(key, cs)
				continue
			}
			return nil, how, err
		}
		if how == CacheHit {
			s.cache.RecordHit()
		}
		return out, how, nil
	}
}

// deliver hands a cached solve to the caller: as stored to the tree it
// was solved on, re-placed and re-evaluated for any other. It fails when
// the placement does not fit t, or when the entry claims an exact answer
// that re-evaluates above its lower bound on t.
func deliver(cs *cachedSolve, t *Tree) (*Outcome, error) {
	if cs.tree.Value() == t {
		return cs.out, nil
	}
	out, err := remapOutcome(cs.out, cs.placement, t)
	if err != nil {
		return nil, err
	}
	// The tolerance is the one the exact solvers' agreement tests use.
	if lb := out.LowerBound; out.Exact && out.Delay > lb+1e-9*(1+lb) {
		return nil, fmt.Errorf("repro: cached exact outcome re-evaluates to delay %v, above its lower bound %v", out.Delay, lb)
	}
	return out, nil
}

// canceledElsewhere reports whether err is a cancellation that may belong
// to another caller's context rather than to the request semantics.
func canceledElsewhere(err error) bool {
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// remapOutcome rebuilds an Outcome on to from its canonical placement:
// fingerprint equality guarantees that pre-order positions and satellite
// ranks correspond. The breakdown is re-evaluated on to, which also
// re-validates the placed assignment.
func remapOutcome(out *Outcome, placement []int32, to *Tree) (*Outcome, error) {
	asg, err := model.PlaceCanonical(to, placement)
	if err != nil {
		return nil, fmt.Errorf("repro: cached placement does not fit the requesting tree: %w", err)
	}
	bd, err := Evaluate(to, asg)
	if err != nil {
		return nil, fmt.Errorf("repro: remapping cached outcome: %w", err)
	}
	return &Outcome{
		Algorithm:  out.Algorithm,
		Assignment: asg,
		Breakdown:  bd,
		Delay:      bd.Delay,
		Exact:      out.Exact,
		Elapsed:    out.Elapsed,
		Work:       out.Work,
		Stats:      out.Stats,
		Partial:    out.Partial,
		LowerBound: out.LowerBound,
		DP:         out.DP,
	}, nil
}

// ServiceBatchResult is one SolveBatch item's result: exactly one of
// Outcome and Err is non-nil, and Status records how the item was served.
type ServiceBatchResult struct {
	Outcome *Outcome
	Status  CacheStatus
	Err     error
}

// SolveBatch solves every tree on a bounded worker pool (WithParallelism
// workers) with each item routed through the cache, so duplicated
// instances inside one batch — and across concurrent batches — are
// computed once. Results arrive in input order with failures isolated per
// item; cancelling ctx stops the batch as in Solver.SolveBatch.
func (s *Service) SolveBatch(ctx context.Context, trees []*Tree, opts ...Option) ([]ServiceBatchResult, error) {
	cfg := s.solver.settingsFor(opts)
	results := make([]ServiceBatchResult, len(trees))
	pool.Run(ctx, len(trees), cfg.parallelism, func(i int) {
		out, how, err := s.solveCached(ctx, trees[i], cfg)
		results[i] = ServiceBatchResult{Outcome: out, Status: how, Err: err}
	})

	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Outcome == nil && results[i].Err == nil {
				results[i].Err = &core.CanceledError{Algorithm: cfg.algorithm, Cause: err}
			}
		}
		return results, &core.CanceledError{Algorithm: cfg.algorithm, Cause: err}
	}
	return results, nil
}

// keyBuf is the pooled scratch the cache key is appended into; the warm
// serving path borrows one per call so key assembly never allocates.
type keyBuf struct{ b []byte }

var keyBufs = pool.NewArena(func() *keyBuf { return new(keyBuf) })

// appendRequestKey appends the cache identity of one solve to dst: the
// tree's structural fingerprint plus every parameter that changes the
// answer. The timeout is excluded (it bounds the work, not the result),
// warm-start hints are excluded (they are advisory and reach the cache
// only for exact solvers, whose answer they cannot change), solve
// parallelism is excluded (Parallel-capable solvers promise the worker
// count changes wall time, never the answer — which is why annealing-pack
// pins its restart width instead of consuming the hint), parameters the
// chosen algorithm declares it ignores are normalised away (a seed on
// the deterministic adapted-ssb must not fragment the cache), and zero
// weights collapse onto the default S+B objective so both spellings
// share a key.
func appendRequestKey(dst []byte, t *Tree, cfg settings) []byte {
	w, seed, budget := cfg.weights, cfg.seed, cfg.budget
	if caps, ok := Capability(cfg.algorithm); ok {
		if !caps.Weighted {
			w = dwg.Weights{}
		}
		if !caps.Seeded {
			seed = 0
		}
		if !caps.Budget {
			budget = 0
		}
	}
	if w == (dwg.Weights{}) {
		w = dwg.Default
	}
	dst = append(dst, model.Fingerprint(t)...)
	dst = append(dst, "|a="...)
	dst = append(dst, string(cfg.algorithm)...)
	dst = append(dst, "|ws="...)
	dst = strconv.AppendUint(dst, math.Float64bits(w.WS), 16)
	dst = append(dst, "|wb="...)
	dst = strconv.AppendUint(dst, math.Float64bits(w.WB), 16)
	dst = append(dst, "|s="...)
	dst = strconv.AppendInt(dst, seed, 10)
	dst = append(dst, "|b="...)
	dst = strconv.AppendInt(dst, int64(budget), 10)
	return dst
}

// requestKey is appendRequestKey materialised as a string (miss paths and
// tests; the hit path stays on the byte form).
func requestKey(t *Tree, cfg settings) string {
	return string(appendRequestKey(nil, t, cfg))
}
