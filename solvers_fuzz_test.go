package repro_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/eval"
	"repro/internal/workload"
)

// maxFuzzCRUs keeps every fuzzed instance inside brute force's reach.
const maxFuzzCRUs = 14

// FuzzExactSolversAgree decodes the input as a JSON Spec and demands that
// every exact solver — the paper's adapted SSB, Pareto DP, brute force and the branch-and-bound engine at one and two workers
// — finds the same optimal delay, and that every returned assignment
// re-evaluates through the pointer oracle to exactly the delay it
// reports. parallel-bnb at one worker is the sequential search itself, so
// it must match branch-and-bound bit for bit, work counter included. The
// seed corpus (the paper tree, the epilepsy scenario and a few random
// instances) runs in the plain test suite.
func FuzzExactSolversAgree(f *testing.F) {
	seeds := []*repro.Tree{workload.PaperTree(), workload.Epilepsy()}
	for seed := int64(1); seed <= 4; seed++ {
		spec := workload.DefaultRandomSpec(4+int(seed)*2, 1+int(seed)%3)
		spec.Clustered = seed%2 == 0
		seeds = append(seeds, workload.Random(rand.New(rand.NewSource(seed)), spec))
	}
	for _, tree := range seeds {
		data, err := json.Marshal(repro.ToSpec(tree, "seed"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	type run struct {
		alg     repro.Algorithm
		workers int
	}
	runs := []run{
		{repro.AdaptedSSB, 0},
		{repro.ParetoDP, 0},
		{repro.BruteForce, 0},
		{repro.BranchBound, 0},
		{repro.ParallelBnB, 1},
		{repro.ParallelBnB, 2},
	}
	solver := repro.NewSolver()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec repro.Spec
		if err := json.Unmarshal(data, &spec); err != nil || len(spec.CRUs) > maxFuzzCRUs {
			return
		}
		tree, err := repro.FromSpec(&spec)
		if err != nil {
			return
		}
		ctx := context.Background()
		outs := make([]*repro.Outcome, len(runs))
		for i, r := range runs {
			out, err := solver.Solve(ctx, tree, repro.WithAlgorithm(r.alg), repro.WithSolveParallelism(r.workers))
			if err != nil {
				t.Fatalf("%s workers %d: %v", r.alg, r.workers, err)
			}
			if got := eval.PointerDelay(tree, out.Assignment); got != out.Delay {
				t.Fatalf("%s workers %d: reports %v, its assignment evaluates to %v", r.alg, r.workers, out.Delay, got)
			}
			outs[i] = out
		}
		want := outs[2].Delay // brute force
		for i, out := range outs {
			if d := math.Abs(out.Delay - want); d > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s workers %d: delay %v, brute force %v", runs[i].alg, runs[i].workers, out.Delay, want)
			}
		}
		seq, one := outs[3], outs[4]
		if one.Delay != seq.Delay || one.Work != seq.Work || one.Assignment.Key() != seq.Assignment.Key() {
			t.Fatalf("parallel-bnb at one worker (delay %v, work %d) != branch-and-bound (delay %v, work %d)",
				one.Delay, one.Work, seq.Delay, seq.Work)
		}
	})
}
