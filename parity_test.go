package repro_test

// Compiled/pointer parity: the flat-plan relayering (ISSUE 4) keeps the
// original pointer-walking implementations as references and demands
// bit-identical results from the compiled paths — same delays, same
// objective values, same assignments, same work counters — on random
// workload scenarios. The compiled kernels deliberately replay the
// pointer walks' floating-point operations in the same order, so the
// comparisons below use ==, not tolerances.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/assign"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

// parityScenarios yields a mix of clustered (paper regime) and scattered
// random instances plus the paper tree itself.
func parityScenarios(tb testing.TB) []*model.Tree {
	trees := []*model.Tree{workload.PaperTree(), workload.PaperTreeSymbolic()}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := workload.DefaultRandomSpec(6+int(seed)*3, 2+int(seed)%4)
		spec.Clustered = seed%2 == 0
		trees = append(trees, workload.Random(rng, spec))
	}
	return trees
}

func TestParityEval(t *testing.T) {
	for i, tree := range parityScenarios(t) {
		c := model.Compile(tree)
		fr := eval.GetFrame()
		loc := make([]model.Location, c.Len())
		asgs := []*model.Assignment{
			model.NewAssignment(tree),
			heuristics.MaxDistribution(tree).Assignment,
			heuristics.Greedy(tree, heuristics.FromHost).Assignment,
			heuristics.Anneal(tree, heuristics.AnnealConfig{Seed: int64(i), Steps: 200}).Assignment,
		}
		for j, asg := range asgs {
			want := eval.PointerDelay(tree, asg)
			if got := eval.AssignmentDelay(c, asg, fr); got != want {
				t.Fatalf("scenario %d assignment %d: AssignmentDelay %v != PointerDelay %v", i, j, got, want)
			}
			c.LoadLocations(loc, asg)
			if got := eval.FlatDelay(c, loc, fr); got != want {
				t.Fatalf("scenario %d assignment %d: FlatDelay %v != PointerDelay %v", i, j, got, want)
			}
			if got, err := eval.Delay(tree, asg); err != nil || got != want {
				t.Fatalf("scenario %d assignment %d: Delay (%v, %v), want (%v, nil)", i, j, got, err, want)
			}
		}
		eval.PutFrame(fr)
	}
}

func TestParityAdaptedSSB(t *testing.T) {
	for i, tree := range parityScenarios(t) {
		ptr, err1 := assign.BuildPointer(tree).SolveAdapted(assign.Options{})
		cmp, err2 := assign.Build(tree).SolveAdapted(assign.Options{})
		if err1 != nil || err2 != nil {
			t.Fatalf("scenario %d: pointer err %v, compiled err %v", i, err1, err2)
		}
		if ptr.S != cmp.S || ptr.B != cmp.B || ptr.Objective != cmp.Objective || ptr.Delay != cmp.Delay {
			t.Fatalf("scenario %d: measures diverge: pointer (S=%v B=%v obj=%v) compiled (S=%v B=%v obj=%v)",
				i, ptr.S, ptr.B, ptr.Objective, cmp.S, cmp.B, cmp.Objective)
		}
		if ptr.Assignment.Key() != cmp.Assignment.Key() {
			t.Fatalf("scenario %d: assignments diverge:\n%s\n%s", i, ptr.Assignment.Key(), cmp.Assignment.Key())
		}
		if ptr.Stats != cmp.Stats {
			t.Fatalf("scenario %d: search stats diverge: %+v vs %+v", i, ptr.Stats, cmp.Stats)
		}
	}
}

func TestParityBranchAndBound(t *testing.T) {
	ctx := context.Background()
	for i, tree := range parityScenarios(t) {
		ptr, err1 := exact.BranchAndBoundPointer(ctx, tree, 0, nil)
		cmp, err2 := exact.BranchAndBound(tree, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("scenario %d: pointer err %v, compiled err %v", i, err1, err2)
		}
		if ptr.Delay != cmp.Delay {
			t.Fatalf("scenario %d: delays diverge: pointer %v, compiled %v", i, ptr.Delay, cmp.Delay)
		}
		if ptr.Explored != cmp.Explored {
			t.Fatalf("scenario %d: node counts diverge: pointer %d, compiled %d (pruning changed)",
				i, ptr.Explored, cmp.Explored)
		}
		if ptr.Assignment.Key() != cmp.Assignment.Key() {
			t.Fatalf("scenario %d: assignments diverge", i)
		}
	}
}

func TestParityBranchAndBoundWarm(t *testing.T) {
	ctx := context.Background()
	for i, tree := range parityScenarios(t) {
		warm := heuristics.Greedy(tree, heuristics.FromTopmost).Assignment
		ptr, err1 := exact.BranchAndBoundPointer(ctx, tree, 0, warm)
		cmp, err2 := exact.BranchAndBoundFrom(ctx, tree, 0, warm)
		if err1 != nil || err2 != nil {
			t.Fatalf("scenario %d: pointer err %v, compiled err %v", i, err1, err2)
		}
		if ptr.Delay != cmp.Delay || ptr.Explored != cmp.Explored {
			t.Fatalf("scenario %d: warm search diverges: (%v, %d) vs (%v, %d)",
				i, ptr.Delay, ptr.Explored, cmp.Delay, cmp.Explored)
		}
	}
}

func TestParityHeuristics(t *testing.T) {
	for i, tree := range parityScenarios(t) {
		for _, start := range []heuristics.Start{heuristics.FromHost, heuristics.FromTopmost} {
			ptr := heuristics.GreedyPointer(tree, start)
			cmp := heuristics.Greedy(tree, start)
			if ptr.Delay != cmp.Delay || ptr.Work != cmp.Work {
				t.Fatalf("scenario %d greedy(%d): (%v, %d moves) vs (%v, %d moves)",
					i, start, ptr.Delay, ptr.Work, cmp.Delay, cmp.Work)
			}
			if ptr.Assignment.Key() != cmp.Assignment.Key() {
				t.Fatalf("scenario %d greedy(%d): assignments diverge", i, start)
			}
		}
		for seed := int64(0); seed < 3; seed++ {
			cfg := heuristics.AnnealConfig{Seed: seed, Steps: 400}
			ptr := heuristics.AnnealPointer(tree, cfg)
			cmp := heuristics.Anneal(tree, cfg)
			if ptr.Delay != cmp.Delay {
				t.Fatalf("scenario %d anneal seed %d: %v vs %v (rng trajectories diverged)",
					i, seed, ptr.Delay, cmp.Delay)
			}
			if ptr.Assignment.Key() != cmp.Assignment.Key() {
				t.Fatalf("scenario %d anneal seed %d: assignments diverge", i, seed)
			}
		}
	}
}

// TestParityGenetic pins the compiled genetic algorithm to internal
// consistency: the reported delay must be exactly the pointer evaluator's
// delay of the returned assignment (the decode+flat-eval pipeline may not
// drift from the assignment it ultimately materialises).
func TestParityGenetic(t *testing.T) {
	for i, tree := range parityScenarios(t) {
		for seed := int64(0); seed < 2; seed++ {
			r := heuristics.Genetic(tree, heuristics.GeneticConfig{Seed: seed, Generations: 15, Population: 16})
			if want := eval.PointerDelay(tree, r.Assignment); r.Delay != want {
				t.Fatalf("scenario %d seed %d: genetic reports %v, pointer eval of its assignment is %v",
					i, seed, r.Delay, want)
			}
		}
	}
}

// TestParityParallelBnB anchors the work-stealing search against the
// sequential branch-and-bound on every parity scenario. This file is
// deliberately untagged, so the test runs in both the plain and the -race
// CI lanes without duplication: under -race it doubles as a concurrency
// check on the shared-incumbent protocol.
//
// One worker is the sequential search itself — no frame is ever
// snapshotted — so its delay is bit-equal and its node count identical.
// Above one worker the searches do not share a floating-point trajectory:
// frames snapshot accumulator state at fork points instead of replaying
// the +=/-= backtracking, so delays agree to tolerance, not bits.
func TestParityParallelBnB(t *testing.T) {
	ctx := context.Background()
	for i, tree := range parityScenarios(t) {
		seq, err := exact.BranchAndBound(tree, 0)
		if err != nil {
			t.Fatalf("scenario %d: sequential err %v", i, err)
		}
		tol := 1e-9 * (1 + seq.Delay)
		for _, workers := range []int{1, 2} {
			par, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Workers: workers})
			if err != nil {
				t.Fatalf("scenario %d workers %d: %v", i, workers, err)
			}
			if workers == 1 {
				if par.Delay != seq.Delay || par.Explored != seq.Explored {
					t.Fatalf("scenario %d: single worker (delay %v, explored %d) != sequential (%v, %d)",
						i, par.Delay, par.Explored, seq.Delay, seq.Explored)
				}
			} else if d := par.Delay - seq.Delay; d > tol || d < -tol {
				t.Fatalf("scenario %d workers %d: parallel %v != sequential %v",
					i, workers, par.Delay, seq.Delay)
			}
			want := eval.PointerDelay(tree, par.Assignment)
			if d := par.Delay - want; d > tol || d < -tol {
				t.Fatalf("scenario %d workers %d: reports %v, its assignment evaluates to %v",
					i, workers, par.Delay, want)
			}
		}
	}
}

// TestParityBruteForce anchors the compiled enumeration against the
// pointer branch-and-bound. The two are independent algorithms with
// different summation orders, so this one comparison is tolerance-based;
// the brute result itself must still re-evaluate exactly.
func TestParityBruteForce(t *testing.T) {
	ctx := context.Background()
	for i, tree := range parityScenarios(t) {
		if exact.CountAssignments(tree) > 1<<18 {
			continue // keep the exhaustive cases small
		}
		bf, err1 := exact.BruteForce(tree, 0)
		bb, err2 := exact.BranchAndBoundPointer(ctx, tree, 0, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("scenario %d: brute err %v, bnb err %v", i, err1, err2)
		}
		if d := bf.Delay - bb.Delay; d > 1e-9 || d < -1e-9 {
			t.Fatalf("scenario %d: brute %v != pointer bnb %v", i, bf.Delay, bb.Delay)
		}
		if want := eval.PointerDelay(tree, bf.Assignment); bf.Delay != want {
			t.Fatalf("scenario %d: brute reports %v, its assignment evaluates to %v", i, bf.Delay, want)
		}
	}
}

// TestParityIncrementalPlan drives a profile-drift stream through the
// Editor fast path and checks the patched plans keep solver parity on
// every revision.
func TestParityIncrementalPlan(t *testing.T) {
	tree := workload.PaperTree()
	rng := rand.New(rand.NewSource(99))
	cur := tree
	for step := 0; step < 8; step++ {
		e := cur.Edit()
		name := fmt.Sprintf("CRU%d", 2+rng.Intn(12))
		id, ok := e.NodeByName(name)
		if !ok {
			t.Fatalf("node %s missing", name)
		}
		if info, _ := e.NodeInfo(id); info.Kind == model.Processing {
			e.SetTimes(id, info.HostTime*(0.5+rng.Float64()), info.SatTime*(0.5+rng.Float64()))
		}
		next, err := e.Build()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ptr, err1 := assign.BuildPointer(next).SolveAdapted(assign.Options{})
		cmp, err2 := assign.Build(next).SolveAdapted(assign.Options{})
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: %v / %v", step, err1, err2)
		}
		if ptr.Objective != cmp.Objective || ptr.Assignment.Key() != cmp.Assignment.Key() {
			t.Fatalf("step %d: patched plan diverges from pointer path", step)
		}
		cur = next
	}
}
