package exact

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/model"
)

// The exact solvers register themselves with the core registry,
// branch-and-bound under two names: "branch-and-bound" at one worker and
// "parallel-bnb" at Request.Parallelism workers (GOMAXPROCS when unset).
// Both are "DP proof, then search": on trees with two or more sensed
// satellites the Pareto DP answers every instance whose frontiers fit
// the budget, and the search runs only where it cannot. The plain search stays exported as BranchAndBound*, the
// reference the parity suites pin. Importing this package (directly or
// via repro/internal/algorithms) makes them dispatchable by name.
func init() {
	core.Register(core.ParetoDP, core.Capabilities{
		Exact:    true,
		Budget:   true,
		Weighted: true,
		Summary:  "exact per-region Pareto dynamic programming (frontier budget)",
	}, exactSolver(true, func(ctx context.Context, req core.Request) (*Result, error) {
		return ParetoWeighted(ctx, req.Tree, req.Weights, req.Budget)
	}))
	core.Register(core.BruteForce, core.Capabilities{
		Exact:   true,
		Budget:  true,
		Summary: "exhaustive enumeration of feasible assignments (node budget)",
	}, exactSolver(false, func(ctx context.Context, req core.Request) (*Result, error) {
		return BruteForceContext(ctx, req.Tree, req.Budget)
	}))
	core.Register(core.BranchBound, core.Capabilities{
		Exact:     true,
		Budget:    true,
		WarmStart: true,
		Anytime:   true,
		Bounds:    true,
		Summary:   "Pareto DP proof, then branch-and-bound over the cut decision tree (node budget, bound memoization)",
	}, bnbSolver(false))
	core.Register(core.ParallelBnB, core.Capabilities{
		Exact:     true,
		Budget:    true,
		WarmStart: true,
		Anytime:   true,
		Parallel:  true,
		Bounds:    true,
		Summary:   "Pareto DP proof, then work-stealing parallel branch-and-bound (node budget, Request.Parallelism workers, bound memoization)",
	}, bnbSolver(true))
}

// bnbSolver adapts BranchAndBoundOpts to the registry: at one worker, or
// when parallel at Request.Parallelism workers (GOMAXPROCS when unset).
// The search runs only where the Pareto DP does not prove the optimum
// first (see proveByDP), and then exactly as the plain search would,
// from the request's warm hint.
func bnbSolver(parallel bool) core.SolveFunc {
	return func(ctx context.Context, req core.Request) (core.Finding, error) {
		if f, ok := proveByDP(ctx, req); ok {
			return f, nil
		}
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

// proveByDP runs the Pareto DP with the default weights on req's plan.
// When the delay of the DP's assignment attains the DP's optimum, the
// assignment is proven optimal: proveByDP streams it as the one
// incumbent, when req.OnIncumbent is set, and returns it as the finding
// with its frontier points as Work. Otherwise (budget or context spent,
// or an assignment that misses the optimum) it reports no proof and the
// search runs.
//
// The DP is tried only where it is the faster engine. When every sensor
// hangs off one satellite, every region has that one colour and the DP
// sums them all into one frontier, while the search's bound is tight: on
// random trees of 48-256 CRUs the DP took 2 ms to over 8 s and the search
// 0.06-13 ms (2 vCPUs, go1.24). With two satellites or more the search
// mostly ran past 1<<22 nodes from 48 CRUs on, while the DP proved 256
// CRUs in 0.5-1 s at two satellites and 0.1 s at three.
//
// Where the DP fails, what it spent is lost to the search, so it gets
// the search's limits. req.Budget caps its frontiers at that many points,
// as for the registered pareto-dp, and the pair sums its merges weigh as
// it caps the search's nodes (0 means 1<<22 of each): with a budget of
// 2,000, a 192-CRU two-satellite DP gave up after 19 ms when only its
// frontiers were capped; with both, the starved solve takes as long as
// the plain search alone (BenchmarkBranchAndBound). No DP measured at
// the default budget needed more than 2M pair sums. Under a
// deadline the DP gets half of the time left, so a search it hands over
// to still has the other half to stream incumbents.
func proveByDP(ctx context.Context, req core.Request) (core.Finding, bool) {
	if sensedSatellites(req.Plan) < 2 {
		return core.Finding{}, false
	}
	if end, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(time.Until(end)/2))
		defer cancel()
	}
	d := getParetoDP(ctx, req.Plan, req.Budget, core.IntOr(req.Budget, 1<<22))
	defer d.release()
	best, err := d.solve(dwg.Default)
	if err != nil {
		return core.Finding{}, false
	}
	delay, ok := d.attains(dwg.Default, best)
	if !ok {
		return core.Finding{}, false
	}
	asg := d.assignment(req.Tree)
	work := len(d.arena)
	if req.OnIncumbent != nil {
		req.OnIncumbent(core.Incumbent{Assignment: asg.Clone(), Delay: delay, LowerBound: delay, Work: work})
	}
	return core.Finding{Assignment: asg, Work: work, LowerBound: delay, DP: true}, true
}

// sensedSatellites counts the satellites of c that have a sensor,
// stopping at two.
func sensedSatellites(c *model.Compiled) int {
	n := 0
	for _, sensors := range c.SatSensors {
		if len(sensors) > 0 {
			if n++; n == 2 {
				break
			}
		}
	}
	return n
}

// exactSolver adapts one of the exact entry points to the registry's
// SolveFunc shape; the entry point maps Request.Budget onto its
// exploration cap. dp marks the Pareto DP, whose Explored counts
// frontier points.
func exactSolver(dp bool, solve func(context.Context, core.Request) (*Result, error)) core.SolveFunc {
	return func(ctx context.Context, req core.Request) (core.Finding, error) {
		res, err := solve(ctx, req)
		if err != nil {
			return core.Finding{}, err
		}
		return core.Finding{Assignment: res.Assignment, Work: res.Explored, DP: dp}, nil
	}
}
