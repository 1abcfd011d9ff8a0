package eval

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAllOnHostDelay(t *testing.T) {
	tree := workload.PaperTree()
	a := model.NewAssignment(tree)
	b, err := Evaluate(tree, a)
	if err != nil {
		t.Fatal(err)
	}
	// All CRUs on host: host time = Σ h_i; every sensor edge is cut, so each
	// satellite's load is the sum of its raw frame costs (2.5 each):
	// R has 3 sensors (7.5), B has 2 (5), Y and G one each (2.5).
	if !almost(b.HostTime, tree.TotalHostTime()) {
		t.Errorf("HostTime = %v, want %v", b.HostTime, tree.TotalHostTime())
	}
	if !almost(b.MaxSatLoad, 7.5) {
		t.Errorf("MaxSatLoad = %v, want 7.5 (3 raw frames on R)", b.MaxSatLoad)
	}
	if !almost(b.Delay, tree.TotalHostTime()+7.5) {
		t.Errorf("Delay = %v", b.Delay)
	}
	if got := tree.SatelliteName(b.Bottleneck); got != "R" {
		t.Errorf("bottleneck = %s, want R", got)
	}
	if len(b.CutEdges) != tree.SensorCount() {
		t.Errorf("cut edges = %d, want %d sensor edges", len(b.CutEdges), tree.SensorCount())
	}
}

func TestTopmostDelayHandComputed(t *testing.T) {
	tree := workload.PaperTree()
	asg := model.Compile(tree).TopmostAssignment()
	b, err := Evaluate(tree, asg)
	if err != nil {
		t.Fatal(err)
	}
	// Host: CRU1+CRU2+CRU3 = 4+3+3 = 10.
	if !almost(b.HostTime, 10) {
		t.Errorf("HostTime = %v, want 10", b.HostTime)
	}
	// R: CRU4,9,10,11 proc = 5+2.5·3 = 12.5; comm = c4 = 1.5 → 14.
	// B: CRU5 (5, comm 1) + CRU6+CRU13 (5+2.5, comm 1.5) → 15.
	// Y: CRU7 5 + 1 = 6.  G: CRU8+CRU12 = 7.5 + 1 = 8.5.
	wantLoads := map[string]float64{"R": 14, "B": 15, "Y": 6, "G": 8.5}
	for _, sat := range tree.Satellites() {
		if !almost(b.SatLoad[sat.ID], wantLoads[sat.Name]) {
			t.Errorf("load(%s) = %v, want %v", sat.Name, b.SatLoad[sat.ID], wantLoads[sat.Name])
		}
	}
	if !almost(b.Delay, 25) {
		t.Errorf("Delay = %v, want 10 + 15 = 25", b.Delay)
	}
	if got := tree.SatelliteName(b.Bottleneck); got != "B" {
		t.Errorf("bottleneck = %s, want B", got)
	}
}

func TestPartialAssignment(t *testing.T) {
	// Sink only region CRU4 (satellite R): host keeps CRU1,2,3,5,6,7,8,12,13.
	tree := workload.PaperTree()
	asg := model.NewAssignment(tree)
	for _, name := range []string{"CRU4", "CRU9", "CRU10", "CRU11"} {
		id, _ := tree.NodeByName(name)
		asg.Set(id, model.OnSatellite(0)) // R is the first registered satellite
	}
	b, err := Evaluate(tree, asg)
	if err != nil {
		t.Fatal(err)
	}
	// Host: all h (25) minus (h4+h9+h10+h11) = 25 - 5 = 20.
	if !almost(b.HostTime, 20) {
		t.Errorf("HostTime = %v, want 20", b.HostTime)
	}
	// R: proc s4 + 3·s9 = 5 + 7.5 = 12.5; comm c4 = 1.5 → 14.
	// B: two raw frames = 5; Y: 2.5; G: 2.5.
	if !almost(b.SatLoad[0], 14) {
		t.Errorf("load(R) = %v, want 14", b.SatLoad[0])
	}
	if !almost(b.Delay, 20+14) {
		t.Errorf("Delay = %v, want 34", b.Delay)
	}
}

func TestEvaluateRejectsInvalid(t *testing.T) {
	tree := workload.PaperTree()
	asg := model.NewAssignment(tree)
	cru2, _ := tree.NodeByName("CRU2")
	asg.Set(cru2, model.OnSatellite(0)) // CRU2 spans R and B: infeasible
	if _, err := Evaluate(tree, asg); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := Delay(tree, asg); err == nil {
		t.Fatal("Delay must propagate validation error")
	}
}

func TestMustDelayPanics(t *testing.T) {
	tree := workload.PaperTree()
	asg := model.NewAssignment(tree)
	cru2, _ := tree.NodeByName("CRU2")
	asg.Set(cru2, model.OnSatellite(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustDelay(tree, asg)
}

func TestBottleneckTieBreak(t *testing.T) {
	// Two satellites with equal load: the smaller ID wins deterministically.
	b := model.NewBuilder()
	s0 := b.Satellite("a")
	s1 := b.Satellite("b")
	root := b.Root("root", 1, 0)
	c0 := b.Child(root, "c0", 1, 2, 0.5)
	b.Sensor(c0, "x0", s0, 1)
	c1 := b.Child(root, "c1", 1, 2, 0.5)
	b.Sensor(c1, "x1", s1, 1)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	asg := model.NewAssignment(tree)
	asg.Set(c0, model.OnSatellite(s0))
	asg.Set(c1, model.OnSatellite(s1))
	bd, err := Evaluate(tree, asg)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Bottleneck != s0 {
		t.Errorf("tie-break bottleneck = %v, want %v", bd.Bottleneck, s0)
	}
	if !almost(bd.Delay, 1+2.5) {
		t.Errorf("Delay = %v, want 3.5", bd.Delay)
	}
}

func TestNoCommWhenParentOnSameSatellite(t *testing.T) {
	tree := workload.Epilepsy()
	// Put the whole ECG chain on box-1: no comm for the raw sensor edge,
	// only the processed ecg-features -> seizure-risk hop.
	asg := model.NewAssignment(tree)
	ecgF, _ := tree.NodeByName("ecg-features")
	qrs, _ := tree.NodeByName("qrs-detect")
	asg.Set(ecgF, model.OnSatellite(0))
	asg.Set(qrs, model.OnSatellite(0))
	bd, err := Evaluate(tree, asg)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(bd.SatComm[0], 0.6) {
		t.Errorf("box-1 comm = %v, want just 0.6 (ecg-features uplink)", bd.SatComm[0])
	}
	if !almost(bd.SatProc[0], 14) {
		t.Errorf("box-1 proc = %v, want 8+6", bd.SatProc[0])
	}
}

func TestReport(t *testing.T) {
	tree := workload.PaperTree()
	bd, err := Evaluate(tree, model.NewAssignment(tree))
	if err != nil {
		t.Fatal(err)
	}
	r := bd.Report(tree)
	for _, want := range []string{"host processing", "bottleneck", "end-to-end delay"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

// randomFeasible returns a random feasible assignment of t: a pre-order
// pass over the plan sinks each monochromatic CRU below a host parent to
// its satellite with probability p.
func randomFeasible(rng *rand.Rand, t *model.Tree, p float64) *model.Assignment {
	c := model.Compile(t)
	loc := make([]model.Location, c.Len())
	c.BaseLocations(loc)
	for _, q := range c.Pre {
		par := c.Parent[q]
		if c.Proc[q] && par >= 0 && loc[par].IsHost() && !c.MustHost[q] &&
			c.Colour[q] != model.NoSatellite && rng.Float64() < p {
			c.FillSpan(loc, q, model.OnSatellite(c.Colour[q]))
		}
	}
	a := model.NewAssignment(t)
	c.StoreAssignment(a, loc)
	return a
}

// TestEvaluateMatchesPointer: the one-pass Breakdown equals the pointer
// walk's exactly — every field compared with ==, the maps key for key
// and the cut edges in order — on random trees and random feasible
// assignments.
func TestEvaluateMatchesPointer(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := range 60 {
		spec := workload.DefaultRandomSpec(16+rng.Intn(113), 2+rng.Intn(4))
		spec.Clustered = i%2 == 0
		tree := workload.Random(rng, spec)
		for _, p := range []float64{0, 0.2, 0.6, 1} {
			asg := randomFeasible(rng, tree, p)
			got, err := Evaluate(tree, asg)
			if err != nil {
				t.Fatalf("tree %d, p %v: %v", i, p, err)
			}
			want := evaluatePointer(tree, asg)
			if got.HostTime != want.HostTime || got.Bottleneck != want.Bottleneck ||
				got.MaxSatLoad != want.MaxSatLoad || got.Delay != want.Delay {
				t.Fatalf("tree %d, p %v: scalars %+v, pointer walk %+v", i, p, got, want)
			}
			if !maps.Equal(got.SatLoad, want.SatLoad) || !maps.Equal(got.SatProc, want.SatProc) ||
				!maps.Equal(got.SatComm, want.SatComm) {
				t.Fatalf("tree %d, p %v: maps %v %v %v, pointer walk %v %v %v", i, p,
					got.SatLoad, got.SatProc, got.SatComm, want.SatLoad, want.SatProc, want.SatComm)
			}
			if !slices.Equal(got.CutEdges, want.CutEdges) || len(got.CutEdges) != cap(got.CutEdges) {
				t.Fatalf("tree %d, p %v: cut edges %v (cap %d), pointer walk %v", i, p,
					got.CutEdges, cap(got.CutEdges), want.CutEdges)
			}
		}
	}
}
