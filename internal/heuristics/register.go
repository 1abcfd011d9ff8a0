package heuristics

import (
	"context"

	"repro/internal/core"
)

// The heuristic solvers register themselves with the core registry;
// importing this package (directly or via repro/internal/algorithms) makes
// them dispatchable by name.
func init() {
	core.Register(core.AllHost, core.Capabilities{
		Summary: "baseline: every CRU stays on the host",
	}, func(ctx context.Context, req core.Request) (core.Finding, error) {
		return finding(AllHost(req.Tree), nil)
	})
	core.Register(core.MaxDistribution, core.Capabilities{
		Summary: "baseline: every region sinks to its satellite",
	}, func(ctx context.Context, req core.Request) (core.Finding, error) {
		return finding(MaxDistribution(req.Tree), nil)
	})
	core.Register(core.GreedyHost, core.Capabilities{
		WarmStart: true,
		Summary:   "hill-climbing over sink/lift moves from the all-host assignment",
	}, greedy(FromHost))
	core.Register(core.GreedyTop, core.Capabilities{
		WarmStart: true,
		Summary:   "hill-climbing over sink/lift moves from the maximal distribution",
	}, greedy(FromTopmost))
	core.Register(core.Annealing, core.Capabilities{
		Seeded:    true,
		WarmStart: true,
		Anytime:   true,
		Summary:   "simulated annealing over the cut-move neighbourhood",
	}, func(ctx context.Context, req core.Request) (core.Finding, error) {
		return finding(AnnealContext(ctx, req.Tree, AnnealConfig{
			Seed:       req.Seed,
			Init:       req.Warm,
			OnImprove:  req.OnIncumbent,
			BestEffort: req.BestEffort,
		}))
	})
	// AnnealingPack deliberately does not declare Parallel: its restart
	// count is configuration (changing it changes the answer), and the
	// serving layers exclude Request.Parallelism from the cache identity
	// on the promise that parallelism never changes a solver's output. The
	// registered form therefore always runs the default pack.
	core.Register(core.AnnealingPack, core.Capabilities{
		Seeded:    true,
		WarmStart: true,
		Anytime:   true,
		Summary:   "portfolio of independent annealing restarts run in lockstep",
	}, func(ctx context.Context, req core.Request) (core.Finding, error) {
		return finding(AnnealRestarts(ctx, req.Tree, AnnealPackConfig{
			Seed:       req.Seed,
			Init:       req.Warm,
			OnImprove:  req.OnIncumbent,
			BestEffort: req.BestEffort,
		}))
	})
	core.Register(core.Genetic, core.Capabilities{
		Seeded:    true,
		WarmStart: true,
		Anytime:   true,
		Summary:   "genetic algorithm over cut genomes (paper §6 future work)",
	}, func(ctx context.Context, req core.Request) (core.Finding, error) {
		return finding(GeneticContext(ctx, req.Tree, GeneticConfig{
			Seed:       req.Seed,
			Init:       req.Warm,
			OnImprove:  req.OnIncumbent,
			BestEffort: req.BestEffort,
		}))
	})
}

// greedy adapts the hill-climber to the registry's SolveFunc shape: a
// warm hint replaces the canned start point, so a drifting session climbs
// from the previous revision's solution instead of a cold baseline.
func greedy(start Start) core.SolveFunc {
	return func(ctx context.Context, req core.Request) (core.Finding, error) {
		if req.Warm != nil {
			return finding(GreedyFromContext(ctx, req.Tree, req.Warm))
		}
		return finding(GreedyContext(ctx, req.Tree, start))
	}
}

// finding adapts a heuristic Result (and the optional error of the
// context-aware variants) to the registry's Finding shape.
func finding(r *Result, err error) (core.Finding, error) {
	if err != nil {
		return core.Finding{}, err
	}
	return core.Finding{Assignment: r.Assignment, Work: r.Work, Partial: r.Partial}, nil
}
