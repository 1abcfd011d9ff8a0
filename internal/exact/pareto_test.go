package exact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/workload"
)

// smallIntegerProfile re-profiles t with small integer times and uplinks,
// so many cuts tie on delay and co-optimal assignments are common.
func smallIntegerProfile(t *testing.T, rng *rand.Rand, tree *model.Tree) *model.Tree {
	t.Helper()
	spec := model.ToSpec(tree, "")
	for i := range spec.CRUs {
		spec.CRUs[i].HostTime = float64(1 + rng.Intn(4))
		spec.CRUs[i].SatTime = float64(1 + rng.Intn(6))
		spec.CRUs[i].Comm = float64(rng.Intn(3))
	}
	for i := range spec.Sensors {
		spec.Sensors[i].Comm = float64(1 + rng.Intn(4))
	}
	out, err := model.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParetoDeterministic solves tie-rich trees repeatedly: pareto-dp
// must return one assignment per input, not whichever co-optimal cut a
// map iteration happened to visit first.
func TestParetoDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	trees := []*model.Tree{
		workload.PaperTree(), workload.PaperTreeSymbolic(), workload.Epilepsy(), workload.SNMP(),
	}
	for i := 0; i < 300; i++ {
		spec := workload.DefaultRandomSpec(2+rng.Intn(20), 1+rng.Intn(4))
		trees = append(trees, workload.Random(rng, spec))
	}
	const repeats = 30
	for i, tree := range trees {
		tree = smallIntegerProfile(t, rng, tree)
		first, err := Pareto(tree, 0)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		for r := 1; r < repeats; r++ {
			res, err := Pareto(tree, 0)
			if err != nil {
				t.Fatalf("tree %d: %v", i, err)
			}
			if res.Delay != first.Delay || res.Assignment.Key() != first.Assignment.Key() {
				t.Fatalf("tree %d, solve %d: delay %v key %s, first solve delay %v key %s",
					i, r, res.Delay, res.Assignment.Key(), first.Delay, first.Assignment.Key())
			}
		}
	}
}

// TestParetoWeightedMatchesBruteForce checks the weighted DP against
// exhaustive enumeration of the same objective WS·S + WB·B, on clustered
// and scattered trees and on weightings that drop either term.
func TestParetoWeightedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	weights := []dwg.Weights{dwg.Lambda(0), dwg.Lambda(0.25), dwg.Lambda(0.5), dwg.Lambda(1), {WS: 2, WB: 1}, {}}
	for trial := 0; trial < 60; trial++ {
		spec := workload.DefaultRandomSpec(1+rng.Intn(12), 1+rng.Intn(4))
		spec.Clustered = trial%2 == 0
		tree := workload.Random(rng, spec)
		for _, w := range weights {
			wts := core.WeightsOr(w)
			obj := func(bd *eval.Breakdown) float64 { return wts.Value(bd.HostTime, bd.MaxSatLoad) }
			value := func(a *model.Assignment) float64 {
				bd, err := eval.Evaluate(tree, a)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				return obj(bd)
			}
			dp, err := ParetoWeighted(context.Background(), tree, w, 0)
			if err != nil {
				t.Fatalf("trial %d, weights %+v: %v", trial, w, err)
			}
			bf, err := BruteForceObjective(tree, obj, 0)
			if err != nil {
				t.Fatalf("trial %d: brute force: %v", trial, err)
			}
			got, want := value(dp.Assignment), value(bf.Assignment)
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("trial %d, weights %+v: pareto objective %v, brute force %v", trial, w, got, want)
			}
		}
	}
}

// TestParetoMatchesReference checks the DP on the compiled plan against
// the pointer-tree DP it replaced (pareto_ref_test.go), on the
// TestParetoDeterministic corpus and on clustered and scattered 8–128-CRU
// trees, under five weightings. Delays must be bit-identical. An
// assignment may differ only where the two are co-optimal: the old DP
// broke exact (load, host time) ties in sort.Slice order, the merge keeps
// the earlier arrival.
func TestParetoMatchesReference(t *testing.T) {
	// The TestParetoDeterministic corpus, drawn in the same order.
	rng := rand.New(rand.NewSource(19))
	trees := []*model.Tree{
		workload.PaperTree(), workload.PaperTreeSymbolic(), workload.Epilepsy(), workload.SNMP(),
	}
	for i := 0; i < 300; i++ {
		spec := workload.DefaultRandomSpec(2+rng.Intn(20), 1+rng.Intn(4))
		trees = append(trees, workload.Random(rng, spec))
	}
	for i := range trees {
		trees[i] = smallIntegerProfile(t, rng, trees[i])
	}
	rng = rand.New(rand.NewSource(29))
	for _, n := range []int{8, 16, 32, 64, 96, 128} {
		for trial := 0; trial < 8; trial++ {
			spec := workload.DefaultRandomSpec(n, 2+rng.Intn(4))
			spec.Clustered = trial%2 == 0
			trees = append(trees, workload.Random(rng, spec))
		}
	}

	weights := []dwg.Weights{dwg.Default, dwg.Lambda(0.25), dwg.Lambda(0.75), {WS: 2, WB: 1}, dwg.Lambda(0)}
	objective := func(tree *model.Tree, wts dwg.Weights, a *model.Assignment) float64 {
		bd, err := eval.Evaluate(tree, a)
		if err != nil {
			t.Fatal(err)
		}
		return wts.Value(bd.HostTime, bd.MaxSatLoad)
	}
	ctx := context.Background()
	solves, differ := 0, 0
	for i, tree := range trees {
		for _, w := range weights {
			got, err := ParetoWeighted(ctx, tree, w, 0)
			if err != nil {
				t.Fatalf("tree %d, weights %+v: %v", i, w, err)
			}
			want, err := refParetoWeighted(ctx, tree, w, 0)
			if err != nil {
				t.Fatalf("tree %d, weights %+v: reference: %v", i, w, err)
			}
			solves++
			if math.Float64bits(got.Delay) != math.Float64bits(want.Delay) {
				t.Fatalf("tree %d, weights %+v: delay %v, reference %v", i, w, got.Delay, want.Delay)
			}
			if got.Assignment.Key() == want.Assignment.Key() {
				continue
			}
			differ++
			g, r := objective(tree, w, got.Assignment), objective(tree, w, want.Assignment)
			if math.Abs(g-r) > 1e-9*math.Max(1, math.Abs(r)) {
				t.Fatalf("tree %d, weights %+v: assignment %s (objective %v), reference %s (objective %v)",
					i, w, got.Assignment.Key(), g, want.Assignment.Key(), r)
			}
		}
	}
	t.Logf("%d of %d solves chose a different co-optimal assignment", differ, solves)
}

// TestParetoErrorPaths: a cancelled context stops the DP with the
// context's error, also on a tree whose regions are single sensors and
// so need no frontier merge, and the frontier budget yields ErrBudget.
// Through the registry they are ErrCanceled and ErrBudgetExceeded.
func TestParetoErrorPaths(t *testing.T) {
	b := model.NewBuilder()
	root := b.Root("root", 1, 0)
	b.Sensor(root, "a", b.Satellite("s0"), 2)
	b.Sensor(root, "b", b.Satellite("s1"), 3)
	sensorsOnly := b.MustBuild()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tree := range map[string]*model.Tree{"paper": workload.PaperTree(), "sensors-only": sensorsOnly} {
		if _, err := ParetoWeighted(canceled, tree, dwg.Default, 0); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		_, err := core.SolveContext(canceled, core.Request{Tree: tree, Algorithm: core.ParetoDP})
		if !errors.Is(err, core.ErrCanceled) {
			t.Errorf("%s: registry err = %v, want ErrCanceled", name, err)
		}
	}
	tree := workload.PaperTree()
	if _, err := ParetoWeighted(context.Background(), tree, dwg.Default, 1); !errors.Is(err, ErrBudget) {
		t.Errorf("budget 1: err = %v, want ErrBudget", err)
	}
	_, err := core.SolveContext(context.Background(), core.Request{Tree: tree, Algorithm: core.ParetoDP, Budget: 1})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("registry budget 1: err = %v, want ErrBudgetExceeded", err)
	}
}
