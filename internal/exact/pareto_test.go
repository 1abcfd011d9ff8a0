package exact

import (
	"math/rand"
	"testing"

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
