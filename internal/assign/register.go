package assign

import (
	"context"

	"repro/internal/core"
)

// The adapted SSB solver registers itself with the core registry;
// importing this package (directly or via repro/internal/algorithms) makes
// it dispatchable by name without any edit to core.
func init() {
	core.Register(core.AdaptedSSB, core.Capabilities{
		Exact:    true,
		Weighted: true,
		Summary:  "paper §5.4: coloured assignment graph + adapted SSB search with expansion",
	}, func(ctx context.Context, req core.Request) (core.Finding, error) {
		sol, err := solvePlan(ctx, req.Plan, Options{Weights: req.Weights})
		if err != nil {
			return core.Finding{}, err
		}
		return core.Finding{
			Assignment: sol.Assignment,
			Work:       sol.Stats.Iterations,
			Stats:      &sol.Stats,
		}, nil
	})
}
