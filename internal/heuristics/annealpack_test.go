package heuristics

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/workload"
)

// TestAnnealPackDeterministicAndValid mirrors the scalar annealing test:
// same seed, same answer; the answer is feasible and never beats the
// exact optimum.
func TestAnnealPackDeterministicAndValid(t *testing.T) {
	tree := workload.Epilepsy()
	r1, err := AnnealRestarts(context.Background(), tree, AnnealPackConfig{Seed: 42, Steps: 500})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AnnealRestarts(context.Background(), tree, AnnealPackConfig{Seed: 42, Steps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delay != r2.Delay || r1.Work != r2.Work {
		t.Fatalf("same seed, different runs: %v/%d vs %v/%d", r1.Delay, r1.Work, r2.Delay, r2.Work)
	}
	if err := r1.Assignment.Validate(tree); err != nil {
		t.Fatal(err)
	}
	opt, _ := exact.Pareto(tree, 0)
	if r1.Delay < opt.Delay-1e-9 {
		t.Fatalf("pack %v beats exact %v", r1.Delay, opt.Delay)
	}
}

// TestAnnealPackNeverWorseThanSingleWalk: the pack contains walks from
// both canned start points, so its best can only match or beat the
// better of the two scalar walks with the pack's lane-0 seed.
func TestAnnealPackNeverWorseThanSingleWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		tree := workload.Random(rng, workload.DefaultRandomSpec(6+rng.Intn(20), 1+rng.Intn(3)))
		pack, err := AnnealRestarts(context.Background(), tree, AnnealPackConfig{Seed: 3, Steps: 400})
		if err != nil {
			t.Fatal(err)
		}
		if err := pack.Assignment.Validate(tree); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The pack's baseline floor: its initial population includes both
		// canned starts, so it can never end above either baseline.
		host := AllHost(tree)
		top := MaxDistribution(tree)
		floor := math.Min(host.Delay, top.Delay)
		if pack.Delay > floor+1e-9 {
			t.Fatalf("trial %d: pack %v worse than best baseline %v", trial, pack.Delay, floor)
		}
	}
}

// TestAnnealPackStreamsMonotone: the pack-wide incumbent stream starts
// with the initial best and strictly improves, and the last streamed
// delay is the returned one.
func TestAnnealPackStreamsMonotone(t *testing.T) {
	tree := workload.Random(rand.New(rand.NewSource(2)), workload.DefaultRandomSpec(24, 3))
	var delays []float64
	res, err := AnnealRestarts(context.Background(), tree, AnnealPackConfig{
		Seed:      5,
		OnImprove: func(inc core.Incumbent) { delays = append(delays, inc.Delay) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) == 0 {
		t.Fatal("no incumbents streamed")
	}
	for i := 1; i < len(delays); i++ {
		if delays[i] >= delays[i-1] {
			t.Fatalf("stream not strictly improving at %d: %v after %v", i, delays[i], delays[i-1])
		}
	}
	if last := delays[len(delays)-1]; last != res.Delay {
		t.Fatalf("last incumbent %v != final %v", last, res.Delay)
	}
	bd, err := eval.Evaluate(tree, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Delay != res.Delay {
		t.Fatalf("result evaluates to %v, reported %v", bd.Delay, res.Delay)
	}
}
