package assign

import (
	"context"

	"repro/internal/core"
)

// The graph-based solvers register themselves with the core registry;
// importing this package (directly or via repro/internal/algorithms) makes
// them dispatchable by name without any edit to core.
func init() {
	core.Register(core.AdaptedSSB, core.Capabilities{
		Exact:    true,
		Weighted: true,
		Summary:  "paper §5.4: coloured assignment graph + adapted SSB search with expansion",
	}, graphSolver(func(g *Graph, ctx context.Context, opt Options) (*Solution, error) {
		return g.solveAdapted(ctx, opt, false)
	}))
	core.Register(core.LabelSearch, core.Capabilities{
		Exact:    true,
		Weighted: true,
		Summary:  "exact dominance-pruned coloured label search over the assignment graph",
	}, graphSolver((*Graph).SolveLabelSearchContext))
}

// graphSolver adapts one of the Graph solve methods to the registry's
// SolveFunc shape.
func graphSolver(solve func(*Graph, context.Context, Options) (*Solution, error)) core.SolveFunc {
	return func(ctx context.Context, req core.Request) (core.Finding, error) {
		sol, err := solve(BuildPlan(req.Plan), ctx, Options{Weights: req.Weights})
		if err != nil {
			return core.Finding{}, err
		}
		return core.Finding{
			Assignment: sol.Assignment,
			Work:       sol.Stats.Iterations + sol.Stats.Labels,
			Stats:      &sol.Stats,
		}, nil
	}
}
