// Package exacttest holds fixtures for tests of the exact solvers and of
// the layers that serve them: the plain branch-and-bound search
// registered as a solver, and instances that the registered
// branch-and-bound cannot answer quickly. Importing it registers
// PlainSearch.
package exacttest

import (
	"context"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/workload"
)

// PlainSearch is the plain branch-and-bound search registered as a
// solver: exact.BranchAndBoundOpts from the request's warm hint, without
// the Pareto DP proof the registered branch-and-bound tries first. Every
// solve of it reaches the search, so tests of the serving layers' search
// counters have one to observe.
const PlainSearch core.Algorithm = "test-plain-search"

func init() {
	core.Register(PlainSearch, core.Capabilities{
		Exact: true, Budget: true, WarmStart: true,
		Summary: "test: the plain branch-and-bound search",
	}, func(ctx context.Context, req core.Request) (core.Finding, error) {
		res, err := exact.BranchAndBoundOpts(ctx, req.Tree, exact.BnBOptions{
			MaxNodes: req.Budget, Warm: req.Warm,
		})
		if err != nil {
			return core.Finding{}, err
		}
		return core.Finding{
			Assignment: res.Assignment, Work: res.Explored, LowerBound: res.LowerBound,
			Pruned: res.Pruned,
		}, nil
	})
}

// DPHardTree is a 192-CRU random tree over two satellites that neither
// engine of the registered branch-and-bound finishes quickly: the
// Pareto DP proves it in ~0.3 s after building frontiers of more than
// 2,000 points, and the plain search runs past 1<<22 nodes (2 vCPUs,
// go1.24). A budget of 2,000 stops both, and so does a deadline of
// tens of milliseconds, while the search, given half of such a deadline,
// still improves on its all-host and maximal-distribution seeds.
func DPHardTree() *model.Tree {
	return workload.Random(rand.New(rand.NewSource(2)), workload.DefaultRandomSpec(192, 2))
}

// LongTree is a 384-CRU random tree over two satellites per seed: the
// registered branch-and-bound's Pareto DP alone runs for 4-12 s on it
// (seeds 1-3, 2 vCPUs, go1.24) and its plain search far longer, so an
// unconstrained solve of it runs until it is canceled.
func LongTree(seed int64) *model.Tree {
	return workload.Random(rand.New(rand.NewSource(seed)), workload.DefaultRandomSpec(384, 2))
}
