package workload

import (
	"math/rand"
	"testing"

	"repro/internal/dwg"
	"repro/internal/model"
)

func TestPaperTreeShape(t *testing.T) {
	tree := PaperTree()
	if got := tree.ProcessingCount(); got != 13 {
		t.Fatalf("processing CRUs = %d, want 13", got)
	}
	if got := tree.SensorCount(); got != 7 {
		t.Fatalf("sensors = %d, want 7", got)
	}
	if got := len(tree.Satellites()); got != 4 {
		t.Fatalf("satellites = %d, want 4 (R Y B G)", got)
	}
	// Planar leaf order drives the assignment graph: R R R B B Y G.
	want := []string{"R", "R", "R", "B", "B", "Y", "G"}
	for i, leaf := range tree.Leaves() {
		if got := tree.SatelliteName(tree.Node(leaf).Satellite); got != want[i] {
			t.Errorf("leaf %d on %s, want %s", i, got, want[i])
		}
	}
}

func TestPaperTreeSymbolicProfiles(t *testing.T) {
	tree := PaperTreeSymbolic()
	for i := 1; i <= 13; i++ {
		name := "CRU" + itoa(i)
		id, ok := tree.NodeByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		n := tree.Node(id)
		if n.HostTime != SymbolicH(i) || n.SatTime != SymbolicS(i) {
			t.Errorf("%s: h=%v s=%v, want %v/%v", name, n.HostTime, n.SatTime, SymbolicH(i), SymbolicS(i))
		}
		if i > 1 && n.UpComm != SymbolicC(i) {
			t.Errorf("%s: c=%v, want %v", name, n.UpComm, SymbolicC(i))
		}
	}
}

func TestFigure4Workload(t *testing.T) {
	g, src, dst := Figure4()
	res, err := dwg.SSB(g, src, dst, dwg.Default)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 20 || len(res.Iterations) != 3 {
		t.Fatalf("Figure4: obj=%v iters=%d, want 20/3", res.Objective, len(res.Iterations))
	}
}

func TestEpilepsyScenario(t *testing.T) {
	tree := Epilepsy()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.SensorCount() != 3 || len(tree.Satellites()) != 2 {
		t.Fatalf("epilepsy shape: %v", tree)
	}
	// The raw streams must dominate processed context for the offloading
	// story to hold.
	ecg, _ := tree.NodeByName("ecg")
	qrs, _ := tree.NodeByName("qrs-detect")
	if tree.Node(ecg).UpComm <= tree.Node(qrs).UpComm {
		t.Error("raw ECG must be costlier to ship than QRS features")
	}
}

func TestSNMPScenario(t *testing.T) {
	tree := SNMP()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tree.Satellites()) != 3 {
		t.Fatalf("satellites = %d, want 3 routers", len(tree.Satellites()))
	}
	if tree.SensorCount() != 9 {
		t.Fatalf("sensors = %d, want 9 probes", tree.SensorCount())
	}
}

func TestRandomValidityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		spec := RandomSpec{
			CRUs:       1 + rng.Intn(40),
			MaxArity:   1 + rng.Intn(4),
			Satellites: 1 + rng.Intn(6),
			Clustered:  trial%2 == 0,
			HostScale:  0.5 + rng.Float64(),
			SatRatio:   1 + 3*rng.Float64(),
			CommScale:  0.5 + rng.Float64(),
			RawFactor:  1 + 4*rng.Float64(),
		}
		tree := Random(rng, spec)
		if err := tree.Validate(); err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, spec, err)
		}
		if tree.ProcessingCount() != spec.CRUs {
			t.Fatalf("trial %d: CRUs = %d, want %d", trial, tree.ProcessingCount(), spec.CRUs)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	spec := DefaultRandomSpec(20, 3)
	t1 := Random(rand.New(rand.NewSource(7)), spec)
	t2 := Random(rand.New(rand.NewSource(7)), spec)
	if t1.Render() != t2.Render() {
		t.Fatal("same seed must produce the same tree")
	}
}

func TestRandomClusteredContiguity(t *testing.T) {
	// Clustered mode assigns satellites in planar-order blocks, so bands
	// must be contiguous: positions of each satellite form one run.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		tree := Random(rng, DefaultRandomSpec(2+rng.Intn(25), 1+rng.Intn(4)))
		seen := map[model.SatelliteID]int{} // satellite -> last position
		closed := map[model.SatelliteID]bool{}
		prev := model.NoSatellite
		for _, leaf := range tree.Leaves() {
			sat := tree.Node(leaf).Satellite
			if sat != prev {
				if closed[sat] {
					t.Fatalf("trial %d: satellite %d appears in two bands", trial, sat)
				}
				if prev != model.NoSatellite {
					closed[prev] = true
				}
				prev = sat
			}
			seen[sat]++
		}
	}
}

func TestRandomPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Random(rand.New(rand.NewSource(1)), RandomSpec{})
}

func TestRandomDWGConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g, src, dst := RandomDWG(rng, 2+rng.Intn(50), rng.Intn(100))
		if _, err := dwg.SSB(g, src, dst, dwg.Default); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	// Degenerate size is clamped.
	g, src, dst := RandomDWG(rng, 0, 0)
	if g.NumNodes() != 2 || src != 0 || dst != 1 {
		t.Fatal("clamp to 2 nodes failed")
	}
}

func itoa(i int) string {
	if i < 10 {
		return string('0' + byte(i))
	}
	return string('0'+byte(i/10)) + string('0'+byte(i%10))
}

// TestFingerprintGolden pins the canonical fingerprints of the paper's
// scenarios. They are cache keys and migration identity across nodes and
// releases, so a change to tree storage must leave them byte-identical,
// whichever way the tree was built.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree *model.Tree
		want string
	}{
		{"paper", PaperTree(), "cr2-513fd561d48329e75fff276601fdbb93"},
		{"epilepsy", Epilepsy(), "cr2-67c37f262bfc9ff2ed43d053d8565ef7"},
	} {
		if got := model.Fingerprint(tc.tree); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
		rebuilt, err := model.FromSpec(model.ToSpec(tc.tree, tc.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := model.Fingerprint(rebuilt); got != tc.want {
			t.Errorf("%s: Fingerprint after a spec round trip = %s, want %s", tc.name, got, tc.want)
		}
		if got := model.Fingerprint(tc.tree.Clone()); got != tc.want {
			t.Errorf("%s: Fingerprint of a clone = %s, want %s", tc.name, got, tc.want)
		}
	}
}
