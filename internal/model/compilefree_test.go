package model_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/workload"
)

// freshTree builds a new tree from spec and checks it starts uncompiled.
func freshTree(t *testing.T, spec *model.Spec) *model.Tree {
	t.Helper()
	tree, err := model.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if model.IsCompiled(tree) {
		t.Fatal("FromSpec compiled the tree")
	}
	return tree
}

// TestValidateAndEvaluateDoNotCompile checks that feasibility and the
// delay breakdown read parent links and profiles only: neither compiles
// a fresh tree, which is what keeps a cross-tree cache hit compile-free.
func TestValidateAndEvaluateDoNotCompile(t *testing.T) {
	src := workload.Random(rand.New(rand.NewSource(5)), workload.DefaultRandomSpec(48, 4))
	spec := model.ToSpec(src, "compile-free")
	base := freshTree(t, spec) // FromSpec numbers nodes by spec row, so base's IDs fit every fresh tree
	topmost := model.Compile(base).TopmostAssignment()
	for _, a := range []*model.Assignment{model.NewAssignment(base), topmost} {
		tree := freshTree(t, spec)
		if err := a.Validate(tree); err != nil {
			t.Fatal(err)
		}
		if _, err := eval.Evaluate(tree, a); err != nil {
			t.Fatal(err)
		}
		if model.IsCompiled(tree) {
			t.Fatal("Validate or Evaluate compiled a fresh tree")
		}
	}
}

// TestResultCacheHitDoesNotCompile solves one tree through a Service and
// then asks again with a fresh tree of the same fingerprint: the hit is
// re-placed and re-evaluated on the fresh tree without compiling it.
func TestResultCacheHitDoesNotCompile(t *testing.T) {
	src := workload.Random(rand.New(rand.NewSource(9)), workload.DefaultRandomSpec(48, 4))
	spec := model.ToSpec(src, "hit")
	svc := repro.NewService(nil, 64)
	ctx := context.Background()
	if _, status, err := svc.Solve(ctx, freshTree(t, spec)); err != nil || status != repro.CacheMiss {
		t.Fatalf("first solve: status %v, err %v", status, err)
	}
	tree := freshTree(t, spec)
	out, status, err := svc.Solve(ctx, tree)
	if err != nil || status != repro.CacheHit {
		t.Fatalf("second solve: status %v, err %v", status, err)
	}
	if err := out.Assignment.Validate(tree); err != nil {
		t.Fatal(err)
	}
	if model.IsCompiled(tree) {
		t.Fatal("a result-cache hit compiled the fresh tree")
	}
}
