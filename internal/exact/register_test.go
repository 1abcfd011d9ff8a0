package exact_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/exact/exacttest"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

// registeredBnB lists the registered branch-and-bound solvers, which
// try the Pareto DP's proof before any search.
var registeredBnB = []core.Algorithm{core.BranchBound, core.ParallelBnB}

// agreementTree returns instance i of the agreement corpus: 12–32 CRUs
// over 2–5 satellites, every fourth one scattered.
func agreementTree(i int) *model.Tree {
	spec := workload.DefaultRandomSpec(12+i%21, 2+i%4)
	spec.Clustered = i%4 != 3
	return workload.Random(rand.New(rand.NewSource(int64(7000+i))), spec)
}

// TestRegisteredBnBAgreesWithPlainSearch: the registered branch-and-bound
// and parallel-bnb, which answer these instances with the DP's proof,
// agree with the plain search (exact.BranchAndBoundContext), and with
// brute force up to 16 CRUs, within 1e-9·(1+d). Each returned assignment
// re-evaluates to its delay, each outcome is exact with LowerBound ==
// Delay, and the work reported is the DP's: the registered pareto-dp's
// frontier points, with no search node pruned.
func TestRegisteredBnBAgreesWithPlainSearch(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < 48; i++ {
		tree := agreementTree(i)
		plain, err := exact.BranchAndBoundContext(ctx, tree, 0)
		if err != nil {
			t.Fatalf("tree %d: plain search: %v", i, err)
		}
		want := plain.Delay
		if tree.ProcessingCount() <= 16 {
			bf, err := exact.BruteForce(tree, 0)
			if err != nil {
				t.Fatalf("tree %d: brute force: %v", i, err)
			}
			if math.Abs(bf.Delay-want) > 1e-9*(1+want) {
				t.Fatalf("tree %d: brute force %v, plain search %v", i, bf.Delay, want)
			}
		}
		dp, err := core.SolveContext(ctx, core.Request{Tree: tree, Algorithm: core.ParetoDP})
		if err != nil {
			t.Fatalf("tree %d: pareto-dp: %v", i, err)
		}
		if dp.Work == 0 {
			t.Fatalf("tree %d: pareto-dp reports no work", i)
		}
		for _, alg := range registeredBnB {
			out, err := core.SolveContext(ctx, core.Request{Tree: tree, Algorithm: alg})
			if err != nil {
				t.Fatalf("tree %d %s: %v", i, alg, err)
			}
			if math.Abs(out.Delay-want) > 1e-9*(1+want) {
				t.Fatalf("tree %d %s: delay %v, plain search %v", i, alg, out.Delay, want)
			}
			if err := reevaluated(tree, out.Assignment, out.Delay); err != nil {
				t.Fatalf("tree %d %s: %v", i, alg, err)
			}
			if !out.Exact || out.Partial || out.LowerBound != out.Delay {
				t.Fatalf("tree %d %s: exact %v, partial %v, lower bound %v, delay %v",
					i, alg, out.Exact, out.Partial, out.LowerBound, out.Delay)
			}
			if !out.DP || out.Work != dp.Work || out.Pruned != 0 {
				t.Fatalf("tree %d %s: DP %v, work %d, pruned %d; want the DP's %d points and no search",
					i, alg, out.DP, out.Work, out.Pruned, dp.Work)
			}
		}
	}
}

// TestRegisteredBnBProofStreamsOneIncumbent: a DP-proven solve streams
// exactly one incumbent, a caller-owned copy of the answer carrying it
// as its own lower bound.
func TestRegisteredBnBProofStreamsOneIncumbent(t *testing.T) {
	tree := agreementTree(5)
	for _, alg := range registeredBnB {
		var incs []core.Incumbent
		out, err := core.SolveContext(context.Background(), core.Request{
			Tree: tree, Algorithm: alg,
			OnIncumbent: func(inc core.Incumbent) { incs = append(incs, inc) },
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(incs) != 1 {
			t.Fatalf("%s: streamed %d incumbents, want 1", alg, len(incs))
		}
		inc := incs[0]
		if inc.Assignment == out.Assignment || inc.Assignment.Key() != out.Assignment.Key() {
			t.Fatalf("%s: the incumbent is not a copy of the answer", alg)
		}
		if inc.Delay != out.Delay || inc.LowerBound != out.Delay || inc.Work != out.Work {
			t.Fatalf("%s: incumbent %+v, outcome delay %v, work %d", alg, inc, out.Delay, out.Work)
		}
	}
}

// TestRegisteredBnBFallsBackToSearch: when a starved budget or a spent
// context stops the DP, the registered solvers reach the search, which
// keeps each of its contracts: best-effort returns a feasible Partial
// incumbent with a valid floor, streamed incumbents strictly improve,
// the request's warm hint seeds the search, and without best-effort the
// solve fails with ErrBudgetExceeded or ErrCanceled.
func TestRegisteredBnBFallsBackToSearch(t *testing.T) {
	tree := exacttest.DPHardTree()
	opt, err := exact.Pareto(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	const starved = 2000 // below the DP's largest frontier and the search's nodes
	for _, alg := range registeredBnB {
		req := core.Request{Tree: tree, Algorithm: alg, Budget: starved, Parallelism: runtime.GOMAXPROCS(0)}

		if _, err := core.SolveContext(context.Background(), req); !errors.Is(err, core.ErrBudgetExceeded) {
			t.Fatalf("%s starved: err %v, want ErrBudgetExceeded", alg, err)
		}

		best := req
		best.BestEffort = true
		prev := math.Inf(1)
		best.OnIncumbent = func(inc core.Incumbent) {
			if inc.Delay >= prev {
				t.Errorf("%s: incumbent %v after %v", alg, inc.Delay, prev)
			}
			prev = inc.Delay
			if err := reevaluated(tree, inc.Assignment, inc.Delay); err != nil {
				t.Errorf("%s: streamed incumbent %v", alg, err)
			}
		}
		out, err := core.SolveContext(context.Background(), best)
		if err != nil {
			t.Fatalf("%s starved best-effort: %v", alg, err)
		}
		if !out.Partial || out.Exact || math.IsInf(prev, 1) {
			t.Fatalf("%s starved best-effort: partial %v, exact %v, streamed %v", alg, out.Partial, out.Exact, !math.IsInf(prev, 1))
		}
		if err := reevaluated(tree, out.Assignment, out.Delay); err != nil {
			t.Fatalf("%s starved best-effort: %v", alg, err)
		}
		if out.LowerBound <= 0 || out.LowerBound > opt.Delay+1e-9*(1+opt.Delay) || out.Delay < opt.Delay-1e-9*(1+opt.Delay) {
			t.Fatalf("%s starved best-effort: lower bound %v, delay %v, optimum %v", alg, out.LowerBound, out.Delay, opt.Delay)
		}

		// The search starts from the request's hint, so an optimal hint
		// is what a starved search returns.
		warm := best
		warm.OnIncumbent = nil
		warm.Warm = opt.Assignment
		out, err = core.SolveContext(context.Background(), warm)
		if err != nil || math.Abs(out.Delay-opt.Delay) > 1e-9*(1+opt.Delay) {
			t.Fatalf("%s starved with an optimal hint: delay %v (err %v), optimum %v", alg, out.Delay, err, opt.Delay)
		}

		// A deadline that expires during the DP's half of it: the search
		// gets the rest, stops when it expires and honours best-effort.
		full := core.Request{Tree: tree, Algorithm: alg, Parallelism: runtime.GOMAXPROCS(0)}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		_, err = core.SolveContext(ctx, full)
		cancel()
		if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s past its deadline: err %v, want ErrCanceled", alg, err)
		}
		full.BestEffort = true
		ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
		out, err = core.SolveContext(ctx, full)
		cancel()
		if err != nil || !out.Partial {
			t.Fatalf("%s best-effort past its deadline: err %v, outcome %+v", alg, err, out)
		}
		if err := reevaluated(tree, out.Assignment, out.Delay); err != nil {
			t.Fatalf("%s best-effort past its deadline: %v", alg, err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("%s: two 5ms-deadline solves took %v", alg, took)
		}
	}
}

// TestRegisteredBnBDeadlineLeavesSearchTime: under a deadline the DP
// gets only half of it, so on an instance it cannot prove in time the
// search still runs for the other half and streams incumbents that beat
// its all-host and maximal-distribution seeds, as the plain search does.
func TestRegisteredBnBDeadlineLeavesSearchTime(t *testing.T) {
	tree := exacttest.DPHardTree()
	allHost, err := eval.Evaluate(tree, model.NewAssignment(tree))
	if err != nil {
		t.Fatal(err)
	}
	seeds := math.Min(allHost.Delay, heuristics.MaxDistribution(tree).Delay)
	for _, alg := range registeredBnB {
		best := math.Inf(1)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		out, err := core.SolveContext(ctx, core.Request{
			Tree: tree, Algorithm: alg, BestEffort: true, Parallelism: runtime.GOMAXPROCS(0),
			OnIncumbent: func(inc core.Incumbent) { best = math.Min(best, inc.Delay) },
		})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !out.Partial || out.DP || out.Work == 0 {
			t.Fatalf("%s: partial %v, DP %v, work %d; want a partial search", alg, out.Partial, out.DP, out.Work)
		}
		if best >= seeds || out.Delay > best+1e-9*(1+best) {
			t.Fatalf("%s: best streamed %v, answer %v; the seeds reach %v", alg, best, out.Delay, seeds)
		}
	}
}

// TestRegisteredBnBSearchesOneSatelliteTrees: when every sensor hangs
// off one satellite, the registered solvers skip the DP, whose single
// frontier is slow there, and search at once: the outcome is the plain
// search's, node for node at one worker.
func TestRegisteredBnBSearchesOneSatelliteTrees(t *testing.T) {
	ctx := context.Background()
	for i, n := range []int{24, 48, 112} {
		tree := workload.Random(rand.New(rand.NewSource(int64(i+1))), workload.DefaultRandomSpec(n, 1))
		plain, err := exact.BranchAndBoundContext(ctx, tree, 0)
		if err != nil {
			t.Fatalf("%d CRUs: plain search: %v", n, err)
		}
		for _, alg := range registeredBnB {
			out, err := core.SolveContext(ctx, core.Request{Tree: tree, Algorithm: alg})
			if err != nil {
				t.Fatalf("%d CRUs %s: %v", n, alg, err)
			}
			if out.DP || !out.Exact || math.Abs(out.Delay-plain.Delay) > 1e-9*(1+plain.Delay) {
				t.Fatalf("%d CRUs %s: DP %v, exact %v, delay %v; plain search %v",
					n, alg, out.DP, out.Exact, out.Delay, plain.Delay)
			}
			if alg == core.BranchBound && out.Work != plain.Explored {
				t.Fatalf("%d CRUs: explored %d, plain search %d", n, out.Work, plain.Explored)
			}
		}
	}
}

// TestParetoCancelsWithinLongMerges: one Minkowski sum of large
// frontiers can run for seconds, so the DP checks its context inside
// the merge too. On these 256-CRU single-satellite trees the DP runs for
// seconds; a 100ms deadline must end it within a second of expiring.
// (Checked only between merges, it overran to ~1.6 s on both, on 2
// vCPUs with go1.24.)
func TestParetoCancelsWithinLongMerges(t *testing.T) {
	const deadline = 100 * time.Millisecond
	for _, seed := range []int64{3, 4} {
		tree := workload.Random(rand.New(rand.NewSource(seed)), workload.DefaultRandomSpec(256, 1))
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := exact.ParetoWeighted(ctx, tree, dwg.Default, 0)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("seed %d: err %v, want the deadline", seed, err)
		}
		if took > deadline+time.Second {
			t.Fatalf("seed %d: the DP ran %v past a %v deadline", seed, took-deadline, deadline)
		}
	}
}
