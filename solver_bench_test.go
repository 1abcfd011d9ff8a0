package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro"
	"repro/internal/exact/exacttest"
	"repro/internal/workload"
)

// BenchmarkSolverBatch exercises SolveBatch's worker pool on a fixed fleet
// of random instances at parallelism 1, 4 and NumCPU. The sub-benchmark
// names are stable, so benchstat can compare runs across commits — this is
// the anchor for future batching/serving performance work.
func BenchmarkSolverBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	trees := make([]*repro.Tree, 32)
	for i := range trees {
		trees[i] = workload.Random(rng, workload.DefaultRandomSpec(63, 4))
	}
	ctx := context.Background()
	seen := map[int]bool{}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		if seen[par] {
			continue // NumCPU may collide with 1 or 4; keep names benchstat-stable
		}
		seen[par] = true
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			solver := repro.NewSolver(repro.WithParallelism(par))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := solver.SolveBatch(ctx, trees)
				if err != nil {
					b.Fatal(err)
				}
				for j, r := range results {
					if r.Err != nil {
						b.Fatalf("item %d: %v", j, r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkBranchAndBound times the registered branch-and-bound on each
// side of its DP gate: a three-satellite tree the Pareto DP proves, a
// one-satellite tree it skips for the search, and a two-satellite tree
// under a starved budget, where the DP gives up at its frontier cap and
// the search runs out of nodes, so everything the DP did is overhead.
func BenchmarkBranchAndBound(b *testing.B) {
	random := func(seed int64, crus, sats int) *repro.Tree {
		return workload.Random(rand.New(rand.NewSource(seed)), workload.DefaultRandomSpec(crus, sats))
	}
	cases := []struct {
		name   string
		tree   *repro.Tree
		budget int
	}{
		{"three-satellites/n=32", random(1, 32, 3), 0},
		{"one-satellite/n=112", random(2, 112, 1), 0},
		{"two-satellites/n=192/starved", exacttest.DPHardTree(), 2000},
	}
	ctx := context.Background()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			solver := repro.NewSolver(repro.WithAlgorithm(repro.BranchBound),
				repro.WithBudget(c.budget), repro.WithBestEffort())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(ctx, c.tree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
