package exact

import (
	"context"
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
