package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// BenchmarkIncrementalResolve measures the dynamic-workload hot path: one
// CRU's host time drifts every iteration (a fresh fingerprint each time,
// so the result cache never answers) and the revision is re-solved with
// branch-and-bound. "warm" goes through a Session — delta fingerprinting
// plus the previous optimum projected in as the incumbent — while "cold"
// solves each mutated revision from scratch. Warm start must win: the
// projected incumbent makes the very first bound nearly tight.
func BenchmarkIncrementalResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	base := workload.Random(rng, workload.DefaultRandomSpec(44, 4))
	target := ""
	for _, id := range base.Preorder() {
		n := base.Node(id)
		if !n.IsLeaf() && n.Parent >= 0 {
			target = n.Name
			break
		}
	}
	drift := func(i int) Mutation {
		v := 1 + float64(i%17)*0.25
		return WeightUpdate{Node: target, HostTime: &v}
	}
	ctx := context.Background()

	b.Run("warm", func(b *testing.B) {
		svc := NewService(nil, 16)
		sess, err := svc.OpenSession(base, WithAlgorithm(BranchBound))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sess.Resolve(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sess.Mutate(drift(i)); err != nil {
				b.Fatal(err)
			}
			if _, _, err := sess.Resolve(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cold", func(b *testing.B) {
		solver := NewSolver(WithAlgorithm(BranchBound))
		tree := base
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next, err := ApplyMutations(tree, drift(i))
			if err != nil {
				b.Fatal(err)
			}
			tree = next
			if _, err := solver.Solve(ctx, tree.Clone()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionOpen measures what opening a live exact session costs:
// OpenSession plus its first Resolve with branch-and-bound, on 20–32-CRU,
// 3-satellite trees. Each iteration uses a fresh Service, so the result
// cache never answers and every first resolve is a cold solve.
func BenchmarkSessionOpen(b *testing.B) {
	trees := seededSessionTrees()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := NewService(nil, len(trees))
		for _, tree := range trees {
			sess, err := svc.OpenSession(tree, WithAlgorithm(BranchBound))
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sess.Resolve(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}
