package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/exact"
	"repro/internal/workload"
)

// randomSpec returns the spec of a seeded random instance with the given
// number of processing CRUs and satellites.
func randomSpec(seed int64, crus, sats int) *repro.Spec {
	tree := workload.Random(rand.New(rand.NewSource(seed)), workload.DefaultRandomSpec(crus, sats))
	return repro.ToSpec(tree, "alloc-guard")
}

// TestFromSpecAllocsSizeIndependent is the allocs/op regression guard on
// tree construction: FromSpec presizes its slices and name maps, links
// every Children list into one shared array and builds the subtree
// satellite sets into another, so the number of allocations does not grow
// with the tree (17 at every size on go1.24/amd64).
func TestFromSpecAllocsSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	const ceiling = 32
	var first float64
	for i, crus := range []int{16, 48, 96} {
		spec := randomSpec(int64(crus), crus, 4)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := repro.FromSpec(spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("FromSpec at %d CRUs: %.0f allocs/op", crus, allocs)
		if allocs > ceiling {
			t.Errorf("FromSpec at %d CRUs allocates %.0f objects/op, want at most %d", crus, allocs, ceiling)
		}
		if i == 0 {
			first = allocs
		} else if allocs != first {
			t.Errorf("FromSpec at %d CRUs allocates %.0f objects/op, at 16 CRUs %.0f: want the same", crus, allocs, first)
		}
	}
}

// TestEvaluateAllocsSizeIndependent is the allocs/op regression guard on
// the delay breakdown every solve and every cross-tree cache hit builds:
// one walk into pooled per-satellite scratch, maps presized and filled
// once, cut edges copied at their exact length, so a Breakdown makes the
// same number of objects at any tree size. That equality is the guard;
// the ceiling is the count measured on go1.24/amd64, 8 at 16 and at 128
// CRUs with 4 satellites, plus 10%.
func TestEvaluateAllocsSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	const ceiling = 9
	first := -1.0
	for _, crus := range []int{16, 128} {
		tree, err := repro.FromSpec(randomSpec(int64(crus), crus, 4))
		if err != nil {
			t.Fatal(err)
		}
		out, err := repro.NewSolver().Solve(context.Background(), tree)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := repro.Evaluate(tree, out.Assignment); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Evaluate at %d CRUs: %.0f allocs/op", crus, allocs)
		if allocs > ceiling {
			t.Errorf("Evaluate at %d CRUs allocates %.0f objects/op, want at most %d", crus, allocs, ceiling)
		}
		if first < 0 {
			first = allocs
		} else if allocs != first {
			t.Errorf("Evaluate at %d CRUs allocates %.0f objects/op, at 16 CRUs %.0f: want the same", crus, allocs, first)
		}
	}
}

// TestColdSolveAllocCeiling is the allocs/op regression guard on one
// cache-missing adapted-SSB Service.Solve of a fresh 64-CRU tree: plan
// compilation, fingerprinting, the SSB search on a work graph filled from
// the plan with no trace recorded, the Outcome and its cache entry
// (canonical placement and weak tree handle, built even though this
// Service has no store). The ceiling is the count measured on
// go1.24/amd64, 80, plus 10%.
func TestColdSolveAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	const runs, ceiling = 20, 88
	spec := randomSpec(64, 64, 4)
	trees := make([]*repro.Tree, runs+1) // AllocsPerRun adds one warm-up call
	for i := range trees {
		tree, err := repro.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	svc := repro.NewService(nil, 0) // no store: every call misses
	ctx := context.Background()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		out, status, err := svc.Solve(ctx, trees[next], repro.WithAlgorithm(repro.AdaptedSSB))
		next++
		if err != nil || out == nil || status != repro.CacheMiss {
			t.Fatalf("cold solve: status %v, err %v", status, err)
		}
	})
	t.Logf("cold adapted-SSB Service.Solve: %.0f allocs/op", allocs)
	if allocs > ceiling {
		t.Fatalf("cold adapted-SSB Service.Solve allocates %.0f objects/op, want at most %d", allocs, ceiling)
	}
}

// TestBranchAndBoundAllocsSizeIndependent is the allocs/op regression
// guard on the exact branch-and-bound at one worker: the search runs on
// pooled scratch and starts no goroutine, deque or frame, so one solve
// makes the same handful of allocations at any size (6 on go1.24/amd64).
// Workers 0 and 1 are the same sequential search.
func TestBranchAndBoundAllocsSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	const ceiling = 6
	ctx := context.Background()
	first := -1.0
	for _, crus := range []int{14, 24} {
		tree, err := repro.FromSpec(randomSpec(int64(crus), crus, 3))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1} {
			opts := exact.BnBOptions{Workers: workers}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := exact.BranchAndBoundOpts(ctx, tree, opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("branch-and-bound at %d CRUs, workers %d: %.0f allocs/op", crus, workers, allocs)
			if allocs > ceiling {
				t.Errorf("branch-and-bound at %d CRUs, workers %d allocates %.0f objects/op, want at most %d",
					crus, workers, allocs, ceiling)
			}
			if first < 0 {
				first = allocs
			} else if allocs != first {
				t.Errorf("branch-and-bound at %d CRUs, workers %d allocates %.0f objects/op, at 14 CRUs %.0f: want the same",
					crus, workers, allocs, first)
			}
		}
	}
}

// TestParetoAllocsSizeIndependent is the allocs/op regression guard on
// the Pareto DP, which the registered branch-and-bound runs before any
// search: its frontier arena, merge heads, per-position and per-colour
// frontiers, location vector and decode stack come from a pool, so one
// solve allocates only its Result and assignment, the same few objects
// at any size. The ceiling is the count measured on go1.24/amd64, 3,
// plus 10%, rounded up.
func TestParetoAllocsSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	const ceiling = 4
	ctx := context.Background()
	first := -1.0
	for _, crus := range []int{16, 128} {
		tree, err := repro.FromSpec(randomSpec(int64(crus), crus, 4))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := exact.ParetoWeighted(ctx, tree, repro.Weights{}, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("pareto-dp at %d CRUs: %.0f allocs/op", crus, allocs)
		if allocs > ceiling {
			t.Errorf("pareto-dp at %d CRUs allocates %.0f objects/op, want at most %d", crus, allocs, ceiling)
		}
		if first < 0 {
			first = allocs
		} else if allocs != first {
			t.Errorf("pareto-dp at %d CRUs allocates %.0f objects/op, at 16 CRUs %.0f: want the same", crus, allocs, first)
		}
	}
}
