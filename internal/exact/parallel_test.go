package exact_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/workload"
)

// near compares delays with the repo-wide branch-and-bound tolerance:
// the incremental bound terms are backtracked with -=, so the reported
// delay of the same assignment can carry ~1e-13 of rounding residue that
// depends on the exploration order (see exact_test.go, which compares
// the sequential solvers the same way).
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// workerCounts is the satellite-mandated sweep: degenerate sequential,
// small, medium, and whatever this machine has.
func workerCounts() []int {
	out := []int{1, 2, 4}
	if gm := runtime.GOMAXPROCS(0); gm != 1 && gm != 2 && gm != 4 {
		out = append(out, gm)
	}
	return out
}

// TestParallelBnBExact: across ~200 randomized solves (50 instances ×
// every worker count) the parallel delay equals the sequential
// branch-and-bound's, and on small instances the brute-force optimum
// too; only the reported co-optimal assignment may differ.
func TestParallelBnBExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		spec := workload.DefaultRandomSpec(4+rng.Intn(18), 1+rng.Intn(4))
		spec.Clustered = trial%2 == 0
		tree := workload.Random(rng, spec)

		seq, err := exact.BranchAndBound(tree, 0)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		c := model.Compile(tree)
		bfDelay := math.NaN()
		if c.Len() <= 16 {
			bf, err := exact.BruteForce(tree, 0)
			if err != nil {
				t.Fatalf("trial %d: brute force: %v", trial, err)
			}
			bfDelay = bf.Delay
		}

		for _, workers := range workerCounts() {
			res, err := exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if !near(res.Delay, seq.Delay) {
				t.Fatalf("trial %d workers %d: parallel %v != sequential %v",
					trial, workers, res.Delay, seq.Delay)
			}
			if !math.IsNaN(bfDelay) && !near(res.Delay, bfDelay) {
				t.Fatalf("trial %d workers %d: parallel %v != brute force %v",
					trial, workers, res.Delay, bfDelay)
			}
			if res.Partial || res.LowerBound != res.Delay {
				t.Fatalf("trial %d workers %d: completed search must prove itself: partial=%v lb=%v delay=%v",
					trial, workers, res.Partial, res.LowerBound, res.Delay)
			}
			bd, err := eval.Evaluate(tree, res.Assignment)
			if err != nil {
				t.Fatalf("trial %d workers %d: infeasible assignment: %v", trial, workers, err)
			}
			if !near(bd.Delay, res.Delay) {
				t.Fatalf("trial %d workers %d: assignment evaluates to %v, reported %v",
					trial, workers, bd.Delay, res.Delay)
			}
		}
	}
}

// TestParallelBnBWarmStart: a warm hint (even the optimum itself) never
// changes the answer, and an infeasible hint is ignored.
func TestParallelBnBWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tree := workload.Random(rng, workload.DefaultRandomSpec(22, 3))
	seq, err := exact.BranchAndBound(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{Workers: 3, Warm: seq.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Delay, seq.Delay) {
		t.Fatalf("warm-started parallel %v != sequential %v", res.Delay, seq.Delay)
	}
	if res.Explored > seq.Explored {
		t.Logf("note: warm parallel explored %d > sequential %d (racy pruning)", res.Explored, seq.Explored)
	}
	other := workload.Random(rng, workload.DefaultRandomSpec(9, 2))
	bad, err := exact.BranchAndBound(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{Workers: 3, Warm: bad.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Delay, seq.Delay) {
		t.Fatalf("foreign warm hint changed the answer: %v != %v", res.Delay, seq.Delay)
	}
}

// TestParallelBnBAnytimeStream: the incumbent stream is serialised and
// strictly improving no matter how many workers race, every streamed
// assignment is a feasible clone evaluating to its reported delay, and
// the last incumbent is the returned result.
func TestParallelBnBAnytimeStream(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tree := workload.Random(rng, workload.DefaultRandomSpec(26, 3))
	var incs []core.Incumbent
	res, err := exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{
		Workers: 4,
		// Calls are serialised under the solver's incumbent mutex, so the
		// plain append is safe even with 4 workers improving.
		OnIncumbent: func(inc core.Incumbent) { incs = append(incs, inc) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) == 0 {
		t.Fatal("no incumbents streamed")
	}
	prev := math.Inf(1)
	prevWork := -1
	for i, inc := range incs {
		if inc.Delay >= prev {
			t.Fatalf("incumbent %d not strictly improving: %v after %v", i, inc.Delay, prev)
		}
		prev = inc.Delay
		if inc.Work < prevWork {
			t.Fatalf("incumbent %d work counter went backwards: %d after %d", i, inc.Work, prevWork)
		}
		prevWork = inc.Work
		if inc.LowerBound <= 0 || inc.LowerBound > res.Delay+1e-9 {
			t.Fatalf("incumbent %d lower bound %v not a floor on the optimum %v", i, inc.LowerBound, res.Delay)
		}
		bd, err := eval.Evaluate(tree, inc.Assignment)
		if err != nil {
			t.Fatalf("incumbent %d infeasible: %v", i, err)
		}
		if !near(bd.Delay, inc.Delay) {
			t.Fatalf("incumbent %d reports %v but evaluates to %v", i, inc.Delay, bd.Delay)
		}
	}
	if last := incs[len(incs)-1].Delay; last != res.Delay {
		t.Fatalf("last incumbent %v != final result %v", last, res.Delay)
	}
}

// TestParallelBnBBestEffortStarved: a node budget far below the search
// size yields a feasible partial whose delay brackets the true optimum
// from above and whose lower bound brackets it from below; the same
// budget without best-effort fails loudly with ErrBudget.
func TestParallelBnBBestEffortStarved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := workload.Random(rng, workload.DefaultRandomSpec(40, 3))
	// 40-node instances overflow the default 1<<22 node budget; give the
	// reference solve headroom (the root anytime tests do the same).
	seq, err := exact.BranchAndBound(tree, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		res, err := exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{
			Workers: workers, MaxNodes: 10, BestEffort: true,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !res.Partial {
			t.Fatalf("workers %d: starved solve not partial", workers)
		}
		bd, err := eval.Evaluate(tree, res.Assignment)
		if err != nil {
			t.Fatalf("workers %d: partial assignment infeasible: %v", workers, err)
		}
		if !near(bd.Delay, res.Delay) {
			t.Fatalf("workers %d: partial mispriced: %v vs %v", workers, bd.Delay, res.Delay)
		}
		if res.Delay < seq.Delay-1e-9 {
			t.Fatalf("workers %d: partial %v beats the optimum %v", workers, res.Delay, seq.Delay)
		}
		if res.LowerBound <= 0 || res.LowerBound > seq.Delay+1e-9 {
			t.Fatalf("workers %d: partial bound %v not a floor on the optimum %v",
				workers, res.LowerBound, seq.Delay)
		}
		if _, err := exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{
			Workers: workers, MaxNodes: 10,
		}); !errors.Is(err, exact.ErrBudget) {
			t.Fatalf("workers %d: err = %v, want ErrBudget", workers, err)
		}
	}
}

// countGoroutines samples the goroutine count after letting exiting
// goroutines unwind.
func countGoroutines() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// TestParallelBnBCancelStopsWorkers: cancelling a large solve surfaces
// the context error promptly and leaks no worker goroutines — the
// wait-group join inside the work-stealing search is the accounting, and the
// before/after goroutine census verifies it.
func TestParallelBnBCancelStopsWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := workload.Random(rng, workload.DefaultRandomSpec(300, 6))
	before := countGoroutines()

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Workers: 8, MaxNodes: 1 << 30})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancellation took %v to stop the workers", took)
	}

	// BestEffort turns the same cancellation into a feasible partial.
	ctx2, cancel2 := context.WithCancel(context.Background())
	timer2 := time.AfterFunc(5*time.Millisecond, cancel2)
	defer timer2.Stop()
	res, err := exact.BranchAndBoundOpts(ctx2, tree, exact.BnBOptions{Workers: 8, MaxNodes: 1 << 30, BestEffort: true})
	if err != nil {
		t.Fatalf("best-effort cancel: %v", err)
	}
	if !res.Partial || res.Assignment == nil {
		t.Fatalf("best-effort cancel: want feasible partial, got partial=%v", res.Partial)
	}
	if _, err := eval.Evaluate(tree, res.Assignment); err != nil {
		t.Fatalf("best-effort partial infeasible: %v", err)
	}

	// All workers joined: the goroutine census settles back to the start.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := countGoroutines(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, countGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelBnBPreCancelled: a context cancelled before the call stops
// a deterministic single worker at its first poll stride.
func TestParallelBnBPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree := workload.Random(rng, workload.DefaultRandomSpec(400, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Workers: 1, MaxNodes: 1 << 30}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelIncumbentRace hammers the shared-incumbent protocol: many
// oversubscribed solves, some sharing one compiled plan, all streaming
// incumbents, all asserting the exact sequential delay. Run under -race
// this is the memory-model audit of the bound CAS + incMu pairing.
func TestParallelIncumbentRace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 4; trial++ {
		tree := workload.Random(rng, workload.DefaultRandomSpec(18+trial*4, 3))
		seq, err := exact.BranchAndBound(tree, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mu sync.Mutex
				last := math.Inf(1)
				res, err := exact.BranchAndBoundOpts(context.Background(), tree, exact.BnBOptions{
					Workers: 8,
					OnIncumbent: func(inc core.Incumbent) {
						mu.Lock()
						defer mu.Unlock()
						if inc.Delay >= last {
							err := errors.New("incumbent stream not strictly improving")
							select {
							case errs <- err:
							default:
							}
						}
						last = inc.Delay
					},
				})
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if !near(res.Delay, seq.Delay) {
					select {
					case errs <- errors.New("parallel delay diverged from sequential"):
					default:
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestParallelBnBNilContext: a nil context means no cancellation at every
// width — the instance is large enough that every worker passes its
// context-poll stride.
func TestParallelBnBNilContext(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tree := workload.Random(rng, workload.DefaultRandomSpec(24, 3))
	seq, err := exact.BranchAndBound(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Explored < 1024 {
		t.Fatalf("instance explores %d nodes, too few to reach a context poll", seq.Explored)
	}
	for _, workers := range append([]int{0}, workerCounts()...) {
		res, err := exact.BranchAndBoundOpts(nil, tree, exact.BnBOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !near(res.Delay, seq.Delay) {
			t.Fatalf("workers %d: delay %v != sequential %v", workers, res.Delay, seq.Delay)
		}
	}
}
