// Anytime-correctness properties of the incumbent-streaming solvers:
// streams improve monotonically, observing a solve never changes its
// answer, best-effort partial results are feasible and bounded, and
// cancellation stops a search promptly.
package repro_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

// anytimeAlgorithms is every registered solver declaring Anytime.
func anytimeAlgorithms(t *testing.T) []repro.Algorithm {
	t.Helper()
	var out []repro.Algorithm
	for _, name := range repro.Algorithms() {
		caps, _ := repro.Capability(name)
		if caps.Anytime {
			out = append(out, name)
		}
	}
	if len(out) < 3 {
		t.Fatalf("want >= 3 anytime solvers (bnb, annealing, genetic), got %v", out)
	}
	return out
}

// TestAnytimeIncumbentStream: every anytime solver streams at least one
// incumbent, delays never increase along the stream, each streamed
// assignment is a feasible caller-owned clone evaluating to its reported
// delay, and the last incumbent is the returned result.
func TestAnytimeIncumbentStream(t *testing.T) {
	tree := workload.Random(rand.New(rand.NewSource(9)), workload.DefaultRandomSpec(24, 3))
	for _, alg := range anytimeAlgorithms(t) {
		var incs []repro.Incumbent
		out, err := repro.NewSolver().Solve(context.Background(), tree,
			repro.WithAlgorithm(alg), repro.WithSeed(3),
			repro.WithIncumbents(func(inc repro.Incumbent) { incs = append(incs, inc) }))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(incs) == 0 {
			t.Fatalf("%s: no incumbents streamed", alg)
		}
		prev := math.Inf(1)
		for i, inc := range incs {
			if inc.Delay > prev {
				t.Fatalf("%s: incumbent %d worsened: %v after %v", alg, i, inc.Delay, prev)
			}
			prev = inc.Delay
			if inc.Assignment == nil {
				t.Fatalf("%s: incumbent %d carries no assignment", alg, i)
			}
			bd, err := repro.Evaluate(tree, inc.Assignment)
			if err != nil {
				t.Fatalf("%s: incumbent %d infeasible: %v", alg, i, err)
			}
			if math.Abs(bd.Delay-inc.Delay) > 1e-9 {
				t.Fatalf("%s: incumbent %d reports %v but evaluates to %v", alg, i, inc.Delay, bd.Delay)
			}
			if inc.LowerBound > 0 && inc.Delay < inc.LowerBound-1e-9 {
				t.Fatalf("%s: incumbent %d beats its own lower bound: %v < %v", alg, i, inc.Delay, inc.LowerBound)
			}
		}
		if last := incs[len(incs)-1].Delay; math.Abs(last-out.Delay) > 1e-9 {
			t.Fatalf("%s: last incumbent %v != final result %v", alg, last, out.Delay)
		}
	}
}

// TestAnytimeObserverInvariance: attaching an incumbent callback must not
// change the result — callbacks consume no randomness and the stream is
// pure observation.
func TestAnytimeObserverInvariance(t *testing.T) {
	tree := workload.Random(rand.New(rand.NewSource(10)), workload.DefaultRandomSpec(26, 3))
	for _, alg := range anytimeAlgorithms(t) {
		opts := []repro.Option{repro.WithAlgorithm(alg), repro.WithSeed(42)}
		plain, err := repro.NewSolver().Solve(context.Background(), tree, opts...)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		n := 0
		observed, err := repro.NewSolver().Solve(context.Background(), tree,
			append(opts, repro.WithIncumbents(func(repro.Incumbent) { n++ }))...)
		if err != nil {
			t.Fatalf("%s observed: %v", alg, err)
		}
		if observed.Delay != plain.Delay {
			t.Fatalf("%s: observing changed the answer: %v vs %v (%d incumbents)",
				alg, observed.Delay, plain.Delay, n)
		}
	}
}

// TestBestEffortBudgetPartialVsExact is the deterministic half of the
// anytime acceptance: the same instance solved with a starved node budget
// returns a feasible best-so-far marked Partial with a valid bound gap,
// and solved unconstrained reaches the proven optimum — which the partial
// answer never beats.
func TestBestEffortBudgetPartialVsExact(t *testing.T) {
	tree := workload.Random(rand.New(rand.NewSource(1)), workload.DefaultRandomSpec(40, 3))
	solver := repro.NewSolver()

	exact, err := solver.Solve(context.Background(), tree,
		repro.WithAlgorithm(repro.BranchBound), repro.WithBudget(1<<28))
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	if !exact.Exact || exact.Partial {
		t.Fatalf("unconstrained solve not exact: exact=%v partial=%v", exact.Exact, exact.Partial)
	}
	if exact.LowerBound != exact.Delay {
		t.Fatalf("completed exact solve must prove its own delay: lb=%v delay=%v", exact.LowerBound, exact.Delay)
	}

	partial, err := solver.Solve(context.Background(), tree,
		repro.WithAlgorithm(repro.BranchBound), repro.WithBudget(2000), repro.WithBestEffort())
	if err != nil {
		t.Fatalf("best-effort: %v", err)
	}
	if !partial.Partial || partial.Exact {
		t.Fatalf("starved solve should be partial: partial=%v exact=%v", partial.Partial, partial.Exact)
	}
	if partial.Assignment == nil {
		t.Fatal("partial result carries no assignment")
	}
	if bd, err := repro.Evaluate(tree, partial.Assignment); err != nil || math.Abs(bd.Delay-partial.Delay) > 1e-9 {
		t.Fatalf("partial assignment infeasible or mispriced: %v / %v vs %v", err, bd, partial.Delay)
	}
	if partial.LowerBound <= 0 || partial.LowerBound > exact.Delay+1e-9 {
		t.Fatalf("partial lower bound %v must be a valid floor on the optimum %v", partial.LowerBound, exact.Delay)
	}
	if partial.Delay < exact.Delay-1e-9 {
		t.Fatalf("partial %v beats the proven optimum %v", partial.Delay, exact.Delay)
	}
	// Without best-effort the same starved search must keep failing loudly.
	if _, err := solver.Solve(context.Background(), tree,
		repro.WithAlgorithm(repro.BranchBound), repro.WithBudget(2000)); err == nil {
		t.Fatal("starved solve without best-effort should error")
	}
}

// TestBruteForceProvesItsOwnBound: a finished enumeration has checked
// every assignment, so the anytime contract requires it to close its own
// gap — LowerBound == Delay — exactly like a completed branch-and-bound.
// (It used to report the static root floor, leaving a phantom gap that
// made exhaustive answers look unproven to gap-driven clients.)
func TestBruteForceProvesItsOwnBound(t *testing.T) {
	tree := workload.Random(rand.New(rand.NewSource(2)), workload.DefaultRandomSpec(12, 3))
	out, err := repro.NewSolver().Solve(context.Background(), tree, repro.WithAlgorithm(repro.BruteForce))
	if err != nil {
		t.Fatalf("brute: %v", err)
	}
	if !out.Exact || out.Partial {
		t.Fatalf("finished enumeration not exact: exact=%v partial=%v", out.Exact, out.Partial)
	}
	if out.LowerBound != out.Delay {
		t.Fatalf("finished enumeration must prove its own delay: lb=%v delay=%v", out.LowerBound, out.Delay)
	}
}

// TestBestEffortDeadline: a wall-clock deadline far shorter than the
// exact solve returns a feasible partial answer instead of an error.
func TestBestEffortDeadline(t *testing.T) {
	tree := workload.Random(rand.New(rand.NewSource(1)), workload.DefaultRandomSpec(48, 3))
	start := time.Now()
	out, err := repro.NewSolver().Solve(context.Background(), tree,
		repro.WithAlgorithm(repro.BranchBound), repro.WithBudget(1<<30),
		repro.WithTimeout(30*time.Millisecond), repro.WithBestEffort())
	if err != nil {
		t.Fatalf("deadline solve: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("deadline ignored: solve ran %v", took)
	}
	if !out.Partial || out.Assignment == nil {
		t.Fatalf("want feasible partial result, got partial=%v assignment=%v", out.Partial, out.Assignment)
	}
	if _, err := repro.Evaluate(tree, out.Assignment); err != nil {
		t.Fatalf("partial assignment infeasible: %v", err)
	}
}

// TestAnytimeCancelStopsPromptly: cancelling mid-stream stops the search
// quickly and, without best-effort, surfaces ErrCanceled.
func TestAnytimeCancelStopsPromptly(t *testing.T) {
	tree := workload.Random(rand.New(rand.NewSource(1)), workload.DefaultRandomSpec(48, 3))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err := repro.NewSolver().Solve(ctx, tree,
		repro.WithAlgorithm(repro.BranchBound), repro.WithBudget(1<<30),
		repro.WithIncumbents(func(repro.Incumbent) { cancel() }))
	if !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancellation took %v to stop the search", took)
	}
}

// TestAnytimeResultCache: best-effort and incumbent-streaming solves go
// through the Service's result cache. A completed exact outcome is
// stored, and its repeat is a hit that streams one final incumbent the
// caller owns. A starved Partial outcome and a warm-started annealing
// outcome are never stored.
func TestAnytimeResultCache(t *testing.T) {
	ctx := context.Background()
	tree := workload.Random(rand.New(rand.NewSource(4)), workload.DefaultRandomSpec(24, 3))
	svc := repro.NewService(nil, 64)
	var incs []repro.Incumbent
	anytime := []repro.Option{
		repro.WithAlgorithm(repro.BranchBound), repro.WithBestEffort(),
		repro.WithIncumbents(func(inc repro.Incumbent) { incs = append(incs, inc) }),
	}
	stored := func(want int) {
		t.Helper()
		if n := svc.Stats().Size; n != want {
			t.Fatalf("result cache holds %d entries, want %d", n, want)
		}
	}

	first, status, err := svc.Solve(ctx, tree, anytime...)
	if err != nil || status != repro.CacheMiss || !first.Exact || len(incs) == 0 {
		t.Fatalf("first solve: status %v, err %v, exact %v, %d incumbents; want an exact miss that streams",
			status, err, first != nil && first.Exact, len(incs))
	}
	stored(1)

	incs = nil
	again, status, err := svc.Solve(ctx, tree, anytime...)
	if err != nil || status != repro.CacheHit || again.Delay != first.Delay {
		t.Fatalf("repeat: status %v, err %v; want a hit with delay %v", status, err, first.Delay)
	}
	if len(incs) != 1 {
		t.Fatalf("hit streamed %d incumbents, want 1", len(incs))
	}
	inc := incs[0]
	if inc.Assignment == again.Assignment || inc.Delay != again.Delay || inc.LowerBound != again.LowerBound {
		t.Fatalf("hit incumbent %+v does not mirror the served outcome as a caller-owned copy", inc)
	}
	bd, err := repro.Evaluate(tree, inc.Assignment)
	if err != nil || math.Abs(bd.Delay-inc.Delay) > 1e-9*(1+inc.Delay) {
		t.Fatalf("hit incumbent re-evaluates to %v (err %v), reports %v", bd, err, inc.Delay)
	}
	// The caller may edit its copy: the stored answer stays as it was.
	for _, id := range tree.Preorder() {
		inc.Assignment.Set(id, repro.Host)
	}
	if bd, err := repro.Evaluate(tree, again.Assignment); err != nil || bd.Delay != again.Delay {
		t.Fatalf("editing the streamed incumbent changed the stored outcome: %v, %v", bd, err)
	}

	starved := append(anytime, repro.WithBudget(8))
	for range 2 {
		out, status, err := svc.Solve(ctx, tree, starved...)
		if err != nil || status != repro.CacheMiss || !out.Partial {
			t.Fatalf("starved solve: status %v, err %v; want a partial miss", status, err)
		}
		stored(1)
	}

	warm := []repro.Option{repro.WithAlgorithm(repro.Annealing), repro.WithSeed(5), repro.WithWarmStart(first.Assignment)}
	for range 2 {
		if _, status, err := svc.Solve(ctx, tree, warm...); err != nil || status != repro.CacheMiss {
			t.Fatalf("warm annealing: status %v, err %v; want a miss", status, err)
		}
		stored(1)
	}
}
