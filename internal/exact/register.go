package exact

import (
	"context"
	"runtime"

	"repro/internal/core"
)

// The three independent exact solvers register themselves with the core
// registry, branch-and-bound under two names: "branch-and-bound" at one
// worker and "parallel-bnb" at Request.Parallelism workers (GOMAXPROCS
// when unset). Importing this package (directly or via
// repro/internal/algorithms) makes them dispatchable by name.
func init() {
	core.Register(core.ParetoDP, core.Capabilities{
		Exact:    true,
		Budget:   true,
		Weighted: true,
		Summary:  "exact per-region Pareto dynamic programming (frontier budget)",
	}, exactSolver(func(ctx context.Context, req core.Request) (*Result, error) {
		return ParetoWeighted(ctx, req.Tree, req.Weights, req.Budget)
	}))
	core.Register(core.BruteForce, core.Capabilities{
		Exact:   true,
		Budget:  true,
		Summary: "exhaustive enumeration of feasible assignments (node budget)",
	}, exactSolver(func(ctx context.Context, req core.Request) (*Result, error) {
		return BruteForceContext(ctx, req.Tree, req.Budget)
	}))
	core.Register(core.BranchBound, core.Capabilities{
		Exact:     true,
		Budget:    true,
		WarmStart: true,
		Anytime:   true,
		Bounds:    true,
		Summary:   "branch-and-bound over the cut decision tree (node budget, bound memoization)",
	}, bnbSolver(false))
	core.Register(core.ParallelBnB, core.Capabilities{
		Exact:     true,
		Budget:    true,
		WarmStart: true,
		Anytime:   true,
		Parallel:  true,
		Bounds:    true,
		Summary:   "work-stealing parallel branch-and-bound (node budget, Request.Parallelism workers, bound memoization)",
	}, bnbSolver(true))
}

// bnbSolver adapts BranchAndBoundOpts to the registry: at one worker, or
// when parallel at Request.Parallelism workers (GOMAXPROCS when unset).
func bnbSolver(parallel bool) core.SolveFunc {
	return func(ctx context.Context, req core.Request) (core.Finding, error) {
		workers := 1
		if parallel {
			workers = req.Parallelism
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
		}
		res, err := BranchAndBoundOpts(ctx, req.Tree, BnBOptions{
			MaxNodes:    req.Budget,
			Warm:        req.Warm,
			OnIncumbent: req.OnIncumbent,
			BestEffort:  req.BestEffort,
			Bounds:      req.Bounds,
			Workers:     workers,
		})
		if err != nil {
			return core.Finding{}, err
		}
		return core.Finding{
			Assignment:  res.Assignment,
			Work:        res.Explored,
			Partial:     res.Partial,
			LowerBound:  res.LowerBound,
			Pruned:      res.Pruned,
			BoundHits:   res.BoundHits,
			BoundMisses: res.BoundMisses,
		}, nil
	}
}

// exactSolver adapts one of the exact entry points to the registry's
// SolveFunc shape; the entry point maps Request.Budget onto its
// exploration cap.
func exactSolver(solve func(context.Context, core.Request) (*Result, error)) core.SolveFunc {
	return func(ctx context.Context, req core.Request) (core.Finding, error) {
		res, err := solve(ctx, req)
		if err != nil {
			return core.Finding{}, err
		}
		return core.Finding{Assignment: res.Assignment, Work: res.Explored}, nil
	}
}
