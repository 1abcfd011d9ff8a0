package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro"
	"repro/internal/exact"
	"repro/internal/incremental"
	"repro/internal/model"
	"repro/internal/workload"
)

// P5BoundMemo measures the PR 9 bound-memoization cache on the dynamic
// re-solve workflow it exists for: solve an instance exactly, apply one
// weight mutation, and solve the new revision again. The cold path is
// the cache-less branch-and-bound of the mutated revision; the warm path
// is the session workflow — the previous optimum projected as the
// incumbent plus the bound cache populated by the previous solve, so
// only the dirty Merkle spine is re-searched. The warm-nocache path is
// the projected incumbent alone, so the cache's own share of the warm
// gain is warm-nocache over warm. Every warm delay is
// checked against the cold one (and against brute force on the small
// control instances), so the table doubles as an exactness probe.
//
// Explored-node counts are deterministic; wall times are averaged over
// a few primed runs, each against a freshly primed cache so the warm
// measurement never finds the dirty spine's subtrees already proven by
// an earlier iteration.
func P5BoundMemo() (*Table, error) {
	ctx := context.Background()
	tbl := &Table{
		ID:      "P5",
		Title:   "bound memoization: cold vs warm exact re-solve after one mutation",
		Paper:   "engineering extension: ISSUE 9 incremental-exact, not a paper artefact",
		Columns: []string{"instance", "path", "explored", "ns/op", "reduction"},
	}

	type inst struct {
		name string
		seed int64
		crus int
		sats int
	}
	// The small control instances stay within brute-force reach (the
	// delay parity there is checked against full enumeration); the P5
	// instances are the pinned perf workload the CI smoke asserts on.
	cases := []inst{
		{"ctl-14", 3, 14, 3},
		{"ctl-16", 9, 16, 3},
		{"p5-40a", 4, 40, 4},
		{"p5-40b", 5, 40, 4},
		{"p5-40c", 6, 40, 4},
	}

	const iters = 3
	var geo, geoCache, geoCacheT float64
	var geoN int
	for _, in := range cases {
		tree := workload.Random(rand.New(rand.NewSource(in.seed)), workload.DefaultRandomSpec(in.crus, in.sats))

		// One revision step: the first non-root CRU drifts 2% hostward.
		var target model.NodeID
		for _, id := range tree.Postorder() {
			if tree.Node(id).Kind == model.Processing && id != tree.Root() {
				target = id
				break
			}
		}
		e := tree.Edit()
		nd := tree.Node(target)
		e.SetTimes(target, nd.HostTime*1.02, nd.SatTime*0.99)
		mutated, err := e.Build()
		if err != nil {
			return nil, fmt.Errorf("%s: mutate: %w", in.name, err)
		}

		var coldNS, bareNS, warmNS int64
		var coldExplored, bareExplored, warmExplored int
		var warmDelay float64
		for it := 0; it < iters; it++ {
			// Prime: the previous revision's solve, outside the timed region,
			// into a fresh Service's empty bound cache.
			bc := repro.NewService(nil, 0).Bounds()
			prev, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Bounds: bc, MaxNodes: 1 << 28})
			if err != nil {
				return nil, fmt.Errorf("%s: prime: %w", in.name, err)
			}
			warmStart := incremental.Project(tree, prev.Assignment, mutated)

			t0 := time.Now()
			cold, err := exact.BranchAndBound(mutated, 1<<28)
			coldNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s: cold: %w", in.name, err)
			}

			t0 = time.Now()
			bare, err := exact.BranchAndBoundFrom(ctx, mutated, 1<<28, warmStart)
			bareNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s: warm without cache: %w", in.name, err)
			}

			t0 = time.Now()
			warm, err := exact.BranchAndBoundOpts(ctx, mutated, exact.BnBOptions{
				Bounds: bc, Warm: warmStart, MaxNodes: 1 << 28,
			})
			warmNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s: warm: %w", in.name, err)
			}

			tol := 1e-9 * (1 + cold.Delay)
			for _, d := range []float64{warm.Delay - cold.Delay, bare.Delay - cold.Delay} {
				if d > tol || d < -tol {
					return nil, fmt.Errorf("%s: warm delays %g, %g != cold %g", in.name, warm.Delay, bare.Delay, cold.Delay)
				}
			}
			coldExplored, bareExplored, warmExplored = cold.Explored, bare.Explored, warm.Explored
			warmDelay = warm.Delay
		}

		if exact.CountAssignments(mutated) <= 1<<18 {
			bf, err := exact.BruteForce(mutated, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: brute: %w", in.name, err)
			}
			tol := 1e-9 * (1 + bf.Delay)
			if d := warmDelay - bf.Delay; d > tol || d < -tol {
				return nil, fmt.Errorf("%s: warm delay %g != brute %g", in.name, warmDelay, bf.Delay)
			}
		}

		reduction := float64(coldExplored) / math.Max(float64(warmExplored), 1)
		bareReduction := float64(coldExplored) / math.Max(float64(bareExplored), 1)
		cacheShare := float64(bareExplored) / math.Max(float64(warmExplored), 1)
		cold := float64(coldNS) / iters
		bareT := float64(bareNS) / iters
		warm := float64(warmNS) / iters
		tbl.AddRow(in.name, "cold", coldExplored, fmt.Sprintf("%.0f", cold), "1.0")
		tbl.AddRow(in.name, "warm, no cache", bareExplored, fmt.Sprintf("%.0f", bareT), fmt.Sprintf("%.1fx", bareReduction))
		tbl.AddRow(in.name, "warm", warmExplored, fmt.Sprintf("%.0f", warm), fmt.Sprintf("%.1fx", reduction))
		tbl.AddMetric(fmt.Sprintf("%s/cold/explored", in.name), float64(coldExplored), "nodes")
		tbl.AddMetric(fmt.Sprintf("%s/warm_nocache/explored", in.name), float64(bareExplored), "nodes")
		tbl.AddMetric(fmt.Sprintf("%s/warm/explored", in.name), float64(warmExplored), "nodes")
		tbl.AddMetric(fmt.Sprintf("%s/cold/ns_op", in.name), cold, "ns/op")
		tbl.AddMetric(fmt.Sprintf("%s/warm_nocache/ns_op", in.name), bareT, "ns/op")
		tbl.AddMetric(fmt.Sprintf("%s/warm/ns_op", in.name), warm, "ns/op")
		tbl.AddMetric(fmt.Sprintf("%s/explored_reduction", in.name), reduction, "x")
		tbl.AddMetric(fmt.Sprintf("%s/cache_explored_reduction", in.name), cacheShare, "x")
		tbl.AddMetric(fmt.Sprintf("%s/cache_time_reduction", in.name), bareT/math.Max(warm, 1), "x")
		if in.crus >= 40 {
			geo += math.Log(reduction)
			geoCache += math.Log(cacheShare)
			geoCacheT += math.Log(bareT / math.Max(warm, 1))
			geoN++
		}
	}
	if geoN > 0 {
		tbl.AddMetric("p5/explored_reduction_geomean", math.Exp(geo/float64(geoN)), "x")
		tbl.AddMetric("p5/cache_explored_reduction_geomean", math.Exp(geoCache/float64(geoN)), "x")
		tbl.AddMetric("p5/cache_time_reduction_geomean", math.Exp(geoCacheT/float64(geoN)), "x")
	}

	tbl.Notes = append(tbl.Notes,
		"warm = previous optimum projected as incumbent + bound cache primed by the previous solve; warm, no cache = the projected incumbent alone; cold = cache-less bnb of the same revision",
		"the cache's own share of the warm gain is warm, no cache over warm (cache_explored_reduction, cache_time_reduction)",
		"each warm iteration re-primes a fresh cache so the measurement is the dirty-spine re-search, not a read of subtrees an earlier iteration proved",
		"ctl-* rows are brute-force checked; p5-* rows are the pinned ≥5x acceptance workload (TestWarmMemoizedResolveFewerNodes)",
	)
	return tbl, nil
}
