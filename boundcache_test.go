package repro_test

// Bound-memoization contract (ISSUE 9): attaching a bound cache to the
// exact searches must never change what they return — only how many
// nodes they explore. The property tests below drive random instances
// through random incremental mutation streams and demand that the
// memoized warm re-solve, the cold cache-less search, the work-stealing
// solver at several widths and the brute-force enumeration all agree on
// every revision, while the efficiency tests pin the point of it all:
// warm re-solves explore a fraction of the cold node count, and the
// cache's hot path allocates nothing.

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/boundcache"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/incremental"
	"repro/internal/model"
	"repro/internal/workload"
)

// mutateRandomly applies one random profile-or-structure edit and
// returns the new revision. The edit mix matches the dynamic-workload
// scenarios: mostly weight drift, some uplink drift, an occasional
// sensor re-homing (which shifts satellite ranks, so every subtree hash
// moves — the cache must degrade to misses, never to wrong answers).
func mutateRandomly(t *testing.T, tree *model.Tree, rng *rand.Rand) *model.Tree {
	t.Helper()
	e := tree.Edit()
	var procs, sensors []model.NodeID
	for _, id := range tree.Postorder() {
		if tree.Node(id).Kind == model.Processing {
			procs = append(procs, id)
		} else {
			sensors = append(sensors, id)
		}
	}
	switch r := rng.Intn(10); {
	case r < 6: // weight drift on one CRU
		id := procs[rng.Intn(len(procs))]
		n := tree.Node(id)
		e.SetTimes(id, n.HostTime*(0.5+rng.Float64()), n.SatTime*(0.5+rng.Float64()))
	case r < 9: // uplink drift on one sensor
		id := sensors[rng.Intn(len(sensors))]
		e.SetUpComm(id, tree.Node(id).UpComm*(0.5+rng.Float64()))
	default: // re-home one sensor
		sats := tree.Satellites()
		id := sensors[rng.Intn(len(sensors))]
		e.SetSensorSatellite(id, sats[rng.Intn(len(sats))].ID)
	}
	next, err := e.Build()
	if err != nil {
		t.Fatalf("mutation failed: %v", err)
	}
	return next
}

// TestParityBoundCache is the exactness property test: random instances
// under random incremental mutation streams, solved warm through one
// persistent bound cache, must match the cold cache-less searches and
// the exhaustive enumeration on every revision, at every worker width.
func TestParityBoundCache(t *testing.T) {
	ctx := context.Background()
	widths := []int{1, 2, runtime.GOMAXPROCS(0)}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := workload.DefaultRandomSpec(8+int(seed)*4, 2+int(seed)%4)
		spec.Clustered = seed%2 == 0
		tree := workload.Random(rng, spec)
		bc := boundcache.New()

		for step := 0; step < 6; step++ {
			cold, err := exact.BranchAndBound(tree, 0)
			if err != nil {
				t.Fatalf("seed %d step %d: cold bnb: %v", seed, step, err)
			}
			warm, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Bounds: bc})
			if err != nil {
				t.Fatalf("seed %d step %d: memoized bnb: %v", seed, step, err)
			}
			tol := 1e-9 * (1 + cold.Delay)
			if d := warm.Delay - cold.Delay; d > tol || d < -tol {
				t.Fatalf("seed %d step %d: memoized %v != cold %v", seed, step, warm.Delay, cold.Delay)
			}
			if warm.LowerBound != warm.Delay {
				t.Fatalf("seed %d step %d: completed memoized search must close its gap: lb=%v delay=%v",
					seed, step, warm.LowerBound, warm.Delay)
			}
			if got := eval.PointerDelay(tree, warm.Assignment); math.Abs(got-warm.Delay) > tol {
				t.Fatalf("seed %d step %d: memoized reports %v, its assignment evaluates to %v",
					seed, step, warm.Delay, got)
			}
			for _, w := range widths {
				par, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Workers: w, Bounds: bc})
				if err != nil {
					t.Fatalf("seed %d step %d workers %d: %v", seed, step, w, err)
				}
				if d := par.Delay - cold.Delay; d > tol || d < -tol {
					t.Fatalf("seed %d step %d workers %d: parallel memoized %v != cold %v",
						seed, step, w, par.Delay, cold.Delay)
				}
				if got := eval.PointerDelay(tree, par.Assignment); math.Abs(got-par.Delay) > tol {
					t.Fatalf("seed %d step %d workers %d: reports %v, assignment evaluates to %v",
						seed, step, w, par.Delay, got)
				}
			}
			if exact.CountAssignments(tree) <= 1<<16 {
				bf, err := exact.BruteForce(tree, 0)
				if err != nil {
					t.Fatalf("seed %d step %d: brute: %v", seed, step, err)
				}
				if d := bf.Delay - warm.Delay; d > tol || d < -tol {
					t.Fatalf("seed %d step %d: brute %v != memoized %v", seed, step, bf.Delay, warm.Delay)
				}
				if bf.LowerBound != bf.Delay {
					t.Fatalf("seed %d step %d: finished enumeration must pin LowerBound == Delay: %v != %v",
						seed, step, bf.LowerBound, bf.Delay)
				}
			}

			// An unmutated re-solve reads every subtree entry the first
			// solve proved: it must agree with that solve.
			again, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Bounds: bc})
			if err != nil {
				t.Fatalf("seed %d step %d: re-solve: %v", seed, step, err)
			}
			if d := again.Delay - warm.Delay; d > tol || d < -tol {
				t.Fatalf("seed %d step %d: re-solve %v != first memoized solve %v", seed, step, again.Delay, warm.Delay)
			}
			if got := eval.PointerDelay(tree, again.Assignment); math.Abs(got-again.Delay) > tol {
				t.Fatalf("seed %d step %d: re-solve reports %v, its assignment evaluates to %v",
					seed, step, again.Delay, got)
			}

			tree = mutateRandomly(t, tree, rng)
		}
		if st := bc.Stats(); st.Hits == 0 || st.Stores == 0 {
			t.Fatalf("seed %d: cache never engaged: %+v", seed, st)
		}
	}
}

// TestBoundCacheConcurrentSolves stresses one shared cache under
// concurrent memoized searches of related revisions — sequential and
// work-stealing searches mixed. Under -race this is the data-race check
// on the shard locks and the immutable-entry discipline; in the plain
// lane it still verifies cross-solve agreement.
func TestBoundCacheConcurrentSolves(t *testing.T) {
	base := workload.Random(rand.New(rand.NewSource(7)), workload.DefaultRandomSpec(24, 3))
	revs := []*model.Tree{base}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 3; i++ {
		revs = append(revs, mutateRandomly(t, revs[len(revs)-1], rng))
	}
	want := make([]float64, len(revs))
	for i, tree := range revs {
		cold, err := exact.BranchAndBound(tree, 0)
		if err != nil {
			t.Fatalf("rev %d: %v", i, err)
		}
		want[i] = cold.Delay
	}

	// The searches call exact.BranchAndBoundOpts with the Service's bound
	// cache directly: the registered solvers prove these instances with
	// the Pareto DP and never reach the search.
	svc := repro.NewService(nil, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			workers := 1
			if g%2 == 1 {
				workers = runtime.GOMAXPROCS(0)
			}
			for i, tree := range revs {
				out, err := exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{
					Bounds: svc.Bounds(), Workers: workers,
				})
				if err != nil {
					errs <- err
					return
				}
				tol := 1e-9 * (1 + want[i])
				if math.Abs(out.Delay-want[i]) > tol {
					t.Errorf("goroutine %d rev %d: %v != cold %v", g, i, out.Delay, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent solve: %v", err)
	}
	if st := svc.Bounds().Stats(); st.Hits == 0 {
		t.Fatalf("shared cache never hit: %+v", st)
	}
}

// TestBoundCacheLookupZeroAlloc is the allocs/op regression guard on the
// search hot path: a cache hit — the operation the memoized searches
// perform once per candidate subtree — must not allocate. Runs in the
// CI allocs-guard step next to the warm-serve and batch-eval guards.
func TestBoundCacheLookupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race lane")
	}
	tree := workload.Random(rand.New(rand.NewSource(3)), workload.DefaultRandomSpec(30, 3))
	bc := boundcache.New()
	if _, err := exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{Bounds: bc}); err != nil {
		t.Fatalf("populating solve: %v", err)
	}
	exported := bc.Export(1)
	if len(exported) == 0 {
		t.Fatal("completed solve recorded no subtree entry")
	}
	key := exported[0].Key
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := bc.Lookup(key); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("bound-cache hit allocates %v per op, want 0", allocs)
	}
}

// TestWarmMemoizedResolveFewerNodes is the perf-smoke acceptance (ISSUE
// 9): after a single-weight mutation, a warm re-solve — the session
// workflow: previous optimum projected as the incumbent, plus the bound
// cache populated by the previous solve — must re-search only the dirty
// Merkle spine, at least 5x fewer nodes than the cold cache-less search
// of the same revision, while returning the identical optimum.
// Deterministic pinned workload, asserted in CI.
func TestWarmMemoizedResolveFewerNodes(t *testing.T) {
	ctx := context.Background()
	tree := workload.Random(rand.New(rand.NewSource(5)), workload.DefaultRandomSpec(40, 4))
	bc := boundcache.New()

	// Cold memoized solve: populates the cache and yields the incumbent
	// the next revision warm-starts from.
	prev, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Bounds: bc})
	if err != nil {
		t.Fatalf("cold memoized solve: %v", err)
	}

	// One weight mutation: the root-to-edit spine's hashes move, every
	// other subtree still hits.
	var target model.NodeID
	found := false
	for _, id := range tree.Postorder() {
		if tree.Node(id).Kind == model.Processing && id != tree.Root() {
			target, found = id, true
			break
		}
	}
	if !found {
		t.Fatal("no mutable CRU")
	}
	e := tree.Edit()
	n := tree.Node(target)
	e.SetTimes(target, n.HostTime*1.02, n.SatTime*0.99)
	mutated, err := e.Build()
	if err != nil {
		t.Fatalf("mutation: %v", err)
	}

	cold, err := exact.BranchAndBound(mutated, 0)
	if err != nil {
		t.Fatalf("cold re-solve: %v", err)
	}
	warm, err := exact.BranchAndBoundOpts(ctx, mutated, exact.BnBOptions{
		Bounds: bc,
		Warm:   incremental.Project(tree, prev.Assignment, mutated),
	})
	if err != nil {
		t.Fatalf("warm re-solve: %v", err)
	}
	tol := 1e-9 * (1 + cold.Delay)
	if math.Abs(warm.Delay-cold.Delay) > tol {
		t.Fatalf("warm re-solve %v != cold %v", warm.Delay, cold.Delay)
	}
	if warm.Explored*5 > cold.Explored {
		t.Fatalf("warm memoized re-solve explored %d nodes, cold %d: want at least 5x reduction",
			warm.Explored, cold.Explored)
	}
	if warm.BoundHits == 0 {
		t.Fatal("warm re-solve hit nothing in the cache")
	}
}
