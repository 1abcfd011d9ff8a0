// Tests for the Solver service API: registry extension without core edits,
// context cancellation mid-search, batch ordering and error isolation, and
// the Spec round-trip.
package repro_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// denseTree builds a 20-CRU tree (root + width leaf CRUs, one sensor each)
// whose brute-force search space is 2^width — large enough that exhaustive
// enumeration reliably outlives a millisecond deadline.
func denseTree(t *testing.T, width int) *repro.Tree {
	t.Helper()
	b := repro.NewBuilder()
	sats := []repro.SatelliteID{b.Satellite("s0"), b.Satellite("s1"), b.Satellite("s2")}
	root := b.Root("fuse", 2, 0)
	for i := 0; i < width; i++ {
		c := b.Child(root, "cru", 1.5, 3, 0.5)
		b.Sensor(c, "probe", sats[i%len(sats)], 4)
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSolverDefaultsAndOverrides(t *testing.T) {
	tree := workload.Epilepsy()
	solver := repro.NewSolver(repro.WithSeed(7))

	out, err := solver.Solve(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != repro.AdaptedSSB || !out.Exact {
		t.Fatalf("default solve = %s exact=%v", out.Algorithm, out.Exact)
	}

	over, err := solver.Solve(context.Background(), tree, repro.WithAlgorithm(repro.ParetoDP))
	if err != nil {
		t.Fatal(err)
	}
	if over.Algorithm != repro.ParetoDP {
		t.Fatalf("override ignored: %s", over.Algorithm)
	}
	if over.Delay != out.Delay {
		t.Fatalf("exact solvers disagree: %v vs %v", over.Delay, out.Delay)
	}
	// Per-call options must not mutate the Solver's defaults.
	again, err := solver.Solve(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	if again.Algorithm != repro.AdaptedSSB {
		t.Fatalf("per-call option leaked into defaults: %s", again.Algorithm)
	}
}

func TestSolverTimeoutCancelsBruteForceMidSearch(t *testing.T) {
	tree := denseTree(t, 19) // 2^19 assignments: far beyond 1ms of enumeration
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := repro.NewSolver().Solve(ctx, tree, repro.WithAlgorithm(repro.BruteForce))
	if !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, should also match context.DeadlineExceeded", err)
	}
	var ce *repro.CanceledError
	if !errors.As(err, &ce) || ce.Algorithm != repro.BruteForce {
		t.Fatalf("err = %v, want CanceledError naming brute-force", err)
	}
}

func TestWithTimeoutOptionCancels(t *testing.T) {
	tree := denseTree(t, 19)
	solver := repro.NewSolver(repro.WithTimeout(time.Millisecond))
	_, err := solver.Solve(context.Background(), tree, repro.WithAlgorithm(repro.BruteForce))
	if !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestSolverCancellationGraphSolver(t *testing.T) {
	// The graph solver checks the context per elimination round; an
	// already-expired deadline must stop it, and the genetic search, too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []repro.Algorithm{repro.AdaptedSSB, repro.Genetic} {
		_, err := repro.NewSolver().Solve(ctx, workload.Epilepsy(), repro.WithAlgorithm(alg))
		if !errors.Is(err, repro.ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", alg, err)
		}
	}
}

func TestSolverBudgetExceeded(t *testing.T) {
	tree := denseTree(t, 19)
	_, err := repro.NewSolver(repro.WithBudget(64)).Solve(
		context.Background(), tree, repro.WithAlgorithm(repro.BruteForce))
	if !errors.Is(err, repro.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestSolveBatchOrderingAndIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trees := []*repro.Tree{
		workload.PaperTree(),
		nil, // isolated failure: must not disturb its neighbours
		workload.Epilepsy(),
		workload.Random(rng, workload.DefaultRandomSpec(25, 3)),
		workload.SNMP(),
	}
	solver := repro.NewSolver(repro.WithParallelism(3))
	results, err := solver.SolveBatch(context.Background(), trees)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if len(results) != len(trees) {
		t.Fatalf("got %d results for %d trees", len(results), len(trees))
	}
	for i, r := range results {
		if trees[i] == nil {
			if !errors.Is(r.Err, repro.ErrInvalidTree) {
				t.Fatalf("item %d: err = %v, want ErrInvalidTree", i, r.Err)
			}
			if r.Outcome != nil {
				t.Fatalf("item %d: outcome and error both set", i)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		// Ordering: each slot must hold its own tree's optimum.
		want, err := repro.NewSolver().Solve(context.Background(), trees[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome.Delay != want.Delay {
			t.Fatalf("item %d out of order: delay %v, want %v", i, r.Outcome.Delay, want.Delay)
		}
	}
}

func TestSolveBatchPerItemTimeout(t *testing.T) {
	trees := []*repro.Tree{denseTree(t, 19), denseTree(t, 19)}
	results, err := repro.NewSolver().SolveBatch(context.Background(), trees,
		repro.WithAlgorithm(repro.BruteForce), repro.WithTimeout(time.Millisecond))
	if err != nil {
		t.Fatalf("per-item timeouts must not fail the batch: %v", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, repro.ErrCanceled) {
			t.Fatalf("item %d: err = %v, want ErrCanceled", i, r.Err)
		}
	}
}

func TestSolveBatchCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trees := []*repro.Tree{workload.PaperTree(), workload.Epilepsy()}
	results, err := repro.NewSolver().SolveBatch(ctx, trees)
	if !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("batch err = %v, want ErrCanceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, repro.ErrCanceled) {
			t.Fatalf("item %d: err = %v, want ErrCanceled", i, r.Err)
		}
	}
}

func TestRegisterCustomAlgorithmNoCoreEdits(t *testing.T) {
	// A new algorithm plugs in through the registry alone: no edit to
	// internal/core dispatch code, immediately usable through the Solver.
	const name core.Algorithm = "test-everything-hosted"
	core.Register(name, core.Capabilities{Summary: "test stub"},
		func(ctx context.Context, req core.Request) (core.Finding, error) {
			return core.Finding{Assignment: model.NewAssignment(req.Tree)}, nil
		})
	out, err := repro.NewSolver().Solve(context.Background(), workload.Epilepsy(), repro.WithAlgorithm(name))
	if err != nil {
		t.Fatal(err)
	}
	allHost, err := repro.NewSolver().Solve(context.Background(), workload.Epilepsy(), repro.WithAlgorithm(repro.AllHost))
	if err != nil {
		t.Fatal(err)
	}
	if out.Delay != allHost.Delay {
		t.Fatalf("custom algorithm delay %v, want the all-host %v", out.Delay, allHost.Delay)
	}
	found := false
	for _, a := range repro.Algorithms() {
		if a == name {
			found = true
		}
	}
	if !found {
		t.Fatal("custom algorithm missing from Algorithms()")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tree := range []*repro.Tree{
		workload.PaperTree(),
		workload.Epilepsy(),
		workload.SNMP(),
		workload.Random(rng, workload.DefaultRandomSpec(40, 4)),
	} {
		spec := repro.ToSpec(tree, "round-trip")
		rebuilt, err := repro.FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		spec2 := repro.ToSpec(rebuilt, "round-trip")
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("Spec → Tree → Spec not stable:\nfirst  %+v\nsecond %+v", spec, spec2)
		}
		// The rebuilt tree must be the same problem: equal optimal delay.
		a, err := repro.NewSolver().Solve(context.Background(), tree)
		if err != nil {
			t.Fatal(err)
		}
		b, err := repro.NewSolver().Solve(context.Background(), rebuilt)
		if err != nil {
			t.Fatal(err)
		}
		if a.Delay != b.Delay {
			t.Fatalf("round-trip changed the optimum: %v vs %v", a.Delay, b.Delay)
		}
	}
}
