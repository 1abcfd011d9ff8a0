// The tests live in an external package: they need the registered solvers,
// and the solver packages import core, so an in-package test would cycle.
package core_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	_ "repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/workload"
)

func TestAllAlgorithmsRunOnPaperTree(t *testing.T) {
	tree := workload.PaperTree()
	var exactDelay float64
	first := true
	for _, alg := range core.Algorithms() {
		out, err := core.SolveContext(context.Background(), core.Request{Tree: tree, Algorithm: alg, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := out.Assignment.Validate(tree); err != nil {
			t.Fatalf("%s: invalid assignment: %v", alg, err)
		}
		if out.Breakdown == nil || out.Delay != out.Breakdown.Delay {
			t.Fatalf("%s: inconsistent breakdown", alg)
		}
		if out.Elapsed <= 0 {
			t.Fatalf("%s: Elapsed not stamped (%v)", alg, out.Elapsed)
		}
		if out.Exact {
			if first {
				exactDelay = out.Delay
				first = false
			} else if math.Abs(out.Delay-exactDelay) > 1e-9 {
				t.Fatalf("%s: exact solver disagreement %v vs %v", alg, out.Delay, exactDelay)
			}
		} else if out.Delay < exactDelay-1e-9 {
			t.Fatalf("%s: heuristic %v beats exact optimum %v", alg, out.Delay, exactDelay)
		}
	}
}

func TestDefaultAlgorithm(t *testing.T) {
	out, err := core.SolveContext(context.Background(), core.Request{Tree: workload.Epilepsy()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != core.AdaptedSSB || !out.Exact {
		t.Fatalf("default = %s exact=%v", out.Algorithm, out.Exact)
	}
	if out.Stats == nil {
		t.Fatal("graph solver should report stats")
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	_, err := core.SolveContext(context.Background(), core.Request{Tree: workload.Epilepsy(), Algorithm: "nope"})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !errors.Is(err, core.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	var uae *core.UnknownAlgorithmError
	if !errors.As(err, &uae) {
		t.Fatalf("err = %T, want *UnknownAlgorithmError", err)
	}
	if uae.Name != "nope" || len(uae.Known) == 0 {
		t.Fatalf("UnknownAlgorithmError = %+v", uae)
	}
}

func TestNilTree(t *testing.T) {
	_, err := core.SolveContext(context.Background(), core.Request{})
	if err == nil {
		t.Fatal("nil tree accepted")
	}
	if !errors.Is(err, core.ErrInvalidTree) {
		t.Fatalf("err = %v, want ErrInvalidTree", err)
	}
}

func TestAlgorithmsOrderedExactFirst(t *testing.T) {
	algs := core.Algorithms()
	seenHeuristic := false
	for _, a := range algs {
		if !a.Exact() {
			seenHeuristic = true
		} else if seenHeuristic {
			t.Fatalf("exact algorithm %s after heuristics", a)
		}
	}
	// These built-ins must all be registered (other tests may add more).
	for _, want := range []core.Algorithm{
		core.AdaptedSSB, core.ParetoDP, core.BruteForce,
		core.BranchBound, core.AllHost, core.MaxDistribution, core.GreedyHost,
		core.GreedyTop, core.Annealing, core.Genetic,
	} {
		if _, ok := core.Capability(want); !ok {
			t.Fatalf("built-in algorithm %s not registered", want)
		}
	}
}

func TestCapabilityMetadata(t *testing.T) {
	caps, ok := core.Capability(core.BruteForce)
	if !ok || !caps.Exact || !caps.Budget || caps.Seeded {
		t.Fatalf("brute-force capabilities = %+v ok=%v", caps, ok)
	}
	caps, ok = core.Capability(core.Annealing)
	if !ok || caps.Exact || !caps.Seeded {
		t.Fatalf("annealing capabilities = %+v ok=%v", caps, ok)
	}
	if caps, _ := core.Capability(core.AdaptedSSB); !caps.Weighted {
		t.Fatalf("adapted-ssb should honour weights: %+v", caps)
	}
}

func TestRegisterCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	core.Register(core.AdaptedSSB, core.Capabilities{}, func(context.Context, core.Request) (core.Finding, error) {
		return core.Finding{}, nil
	})
}

func TestRegisterRejectsNilFunc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil SolveFunc accepted")
		}
	}()
	core.Register("test-nil-func", core.Capabilities{}, nil)
}

func TestCanceledBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.SolveContext(ctx, core.Request{Tree: workload.Epilepsy()})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, should also match context.Canceled", err)
	}
	var ce *core.CanceledError
	if !errors.As(err, &ce) || ce.Algorithm != core.AdaptedSSB {
		t.Fatalf("err = %v, want CanceledError for adapted-ssb", err)
	}
}

func TestElapsedCoversEvaluation(t *testing.T) {
	// The stamp must come after eval.Evaluate: a solve that is instant
	// still reports a positive, monotone elapsed time.
	out, err := core.SolveContext(context.Background(), core.Request{Tree: workload.PaperTree(), Algorithm: core.AllHost})
	if err != nil {
		t.Fatal(err)
	}
	if out.Elapsed <= 0 || out.Elapsed > time.Minute {
		t.Fatalf("Elapsed = %v, want a positive solve+evaluation time", out.Elapsed)
	}
}
