// Ablation studies for two design choices of the adapted SSB solver: the
// candidate-tightened elimination rule and the expansion step. Each
// variant is exact; the benchmarks quantify what each refinement buys.
package repro_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/assign"
	"repro/internal/workload"
)

// TestAblationVariantsExact: all ablation configurations must produce the
// same optimal delay.
func TestAblationVariantsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 25; trial++ {
		spec := workload.DefaultRandomSpec(1+rng.Intn(40), 1+rng.Intn(4))
		spec.Clustered = trial%2 == 0
		tree := workload.Random(rng, spec)
		g := assign.Build(tree)
		ref, err := g.SolveAdapted(assign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, opt := range map[string]assign.Options{
			"conservative":  {ConservativeElimination: true},
			"no-expansion":  {DisableExpansion: true},
			"conserv+noexp": {ConservativeElimination: true, DisableExpansion: true},
		} {
			sol, err := g.SolveAdapted(opt)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if math.Abs(sol.Delay-ref.Delay) > 1e-9 {
				t.Fatalf("trial %d %s: delay %v != %v", trial, name, sol.Delay, ref.Delay)
			}
		}
	}
}

// TestTightenedEliminationReducesIterations: the claim behind the
// tightened rule (assign.Options.ConservativeElimination) — fewer (or equal) iterations on every instance, strictly
// fewer somewhere.
func TestTightenedEliminationReducesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	strictly := false
	for trial := 0; trial < 30; trial++ {
		tree := workload.Random(rng, workload.DefaultRandomSpec(5+rng.Intn(60), 1+rng.Intn(4)))
		g := assign.Build(tree)
		tight, err := g.SolveAdapted(assign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cons, err := g.SolveAdapted(assign.Options{ConservativeElimination: true})
		if err != nil {
			t.Fatal(err)
		}
		if tight.Stats.Iterations > cons.Stats.Iterations {
			t.Fatalf("trial %d: tightened rule used MORE iterations (%d > %d)",
				trial, tight.Stats.Iterations, cons.Stats.Iterations)
		}
		if tight.Stats.Iterations < cons.Stats.Iterations {
			strictly = true
		}
	}
	if !strictly {
		t.Error("tightened elimination never beat the conservative rule across 30 instances")
	}
}

// BenchmarkAblation_Elimination compares the elimination rules at a size
// where the iteration count dominates.
func BenchmarkAblation_Elimination(b *testing.B) {
	tree := workload.Random(rand.New(rand.NewSource(2)), workload.DefaultRandomSpec(255, 4))
	g := assign.Build(tree)
	b.Run("tightened", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.SolveAdapted(assign.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paper-literal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.SolveAdapted(assign.Options{ConservativeElimination: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Expansion compares the paper's band expansion against
// finishing the stalled loop with the Pareto DP at once, on a 31-CRU
// clustered instance that needs one of the two. It measures whether the
// §5.4 expansion still pays for itself against the DP finish.
func BenchmarkAblation_Expansion(b *testing.B) {
	tree := workload.Random(rand.New(rand.NewSource(8)), workload.DefaultRandomSpec(31, 3))
	g := assign.Build(tree)
	b.Run("expansion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.SolveAdapted(assign.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dp-finish", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.SolveAdapted(assign.Options{DisableExpansion: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
