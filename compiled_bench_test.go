package repro_test

// BenchmarkCompiledVsPointer is the acceptance benchmark of the flat-plan
// relayering: every hot path timed through the compiled arrays next to
// the retained pointer-walking reference. Run with
//
//	go test -run='^$' -bench=BenchmarkCompiledVsPointer -benchmem .
//
// and read pointer/compiled pairs; the compiled rows must also hold the
// memory discipline (0 allocs/op for the evaluation kernel and the warm
// serve path). TestWarmServeZeroAlloc guards the latter in CI.

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/assign"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

func BenchmarkCompiledVsPointer(b *testing.B) {
	tree := workload.PaperTree()
	c := model.Compile(tree)
	asg := heuristics.MaxDistribution(tree).Assignment
	loc := make([]model.Location, c.Len())
	c.LoadLocations(loc, asg)
	ctx := context.Background()

	b.Run("eval/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eval.PointerDelay(tree, asg)
		}
	})
	b.Run("eval/compiled", func(b *testing.B) {
		b.ReportAllocs()
		fr := eval.GetFrame()
		defer eval.PutFrame(fr)
		for i := 0; i < b.N; i++ {
			eval.FlatDelay(c, loc, fr)
		}
	})

	b.Run("greedy-host/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heuristics.GreedyPointer(tree, heuristics.FromHost)
		}
	})
	b.Run("greedy-host/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heuristics.Greedy(tree, heuristics.FromHost)
		}
	})

	b.Run("anneal/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heuristics.AnnealPointer(tree, heuristics.AnnealConfig{Seed: 7, Steps: 500})
		}
	})
	b.Run("anneal/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heuristics.Anneal(tree, heuristics.AnnealConfig{Seed: 7, Steps: 500})
		}
	})

	b.Run("bnb/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exact.BranchAndBoundPointer(ctx, tree, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bnb/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exact.BranchAndBound(tree, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("adapted-ssb/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := assign.BuildPointer(tree).SolveAdapted(assign.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adapted-ssb/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := assign.Build(tree).SolveAdapted(assign.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompiledServeWarm times the steady-state serving regime the
// relayering targets: a Service answering a cached instance. Read the
// allocs/op column — the contract is 0.
func BenchmarkCompiledServeWarm(b *testing.B) {
	tree := workload.PaperTree()
	svc := repro.NewService(nil, 64)
	ctx := context.Background()
	if _, _, err := svc.Solve(ctx, tree); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.Solve(ctx, tree); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmServeZeroAlloc is the allocs/op regression guard on the warm
// Service.Solve hot path: a cache hit must not allocate. Key assembly
// runs in a pooled byte buffer, the store lookup reads through it without
// materialising a string, and the cached outcome is delivered as-is.
func TestWarmServeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	tree := workload.PaperTree()
	svc := repro.NewService(nil, 64)
	ctx := context.Background()
	if _, status, err := svc.Solve(ctx, tree); err != nil || status != repro.CacheMiss {
		t.Fatalf("prewarm: status %v, err %v", status, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		out, status, err := svc.Solve(ctx, tree)
		if err != nil || out == nil || status != repro.CacheHit {
			t.Fatalf("warm solve: status %v, err %v", status, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Service.Solve allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFlatDelayZeroAlloc is the allocs/op regression guard on the delay
// kernel: once a Frame is sized, repeated FlatDelay calls over the same
// plan must not allocate — the annealing, genetic and greedy heuristics
// price every candidate through it.
func TestFlatDelayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	for name, tree := range map[string]*model.Tree{
		"paper":     workload.PaperTree(),
		"random-48": workload.Random(rand.New(rand.NewSource(11)), workload.DefaultRandomSpec(48, 3)),
	} {
		c := model.Compile(tree)
		base := make([]model.Location, c.Len())
		top := make([]model.Location, c.Len())
		c.BaseLocations(base)
		c.TopmostLocations(top)
		fr := eval.GetFrame()
		eval.FlatDelay(c, base, fr) // size the frame
		allocs := testing.AllocsPerRun(200, func() {
			eval.FlatDelay(c, base, fr)
			eval.FlatDelay(c, top, fr)
		})
		eval.PutFrame(fr)
		if allocs != 0 {
			t.Fatalf("%s: FlatDelay allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}
