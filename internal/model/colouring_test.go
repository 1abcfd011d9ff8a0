package model_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// regionRoots returns the colour regions of a plan in pre-order: the
// positions off the must-host closure whose parent is in it, sensors
// included. Each is a maximal monochromatic subtree.
func regionRoots(c *model.Compiled) []int32 {
	var out []int32
	for _, p := range c.Pre {
		if par := c.Parent[p]; !c.MustHost[p] && par >= 0 && c.MustHost[par] {
			out = append(out, p)
		}
	}
	return out
}

// TestPaperTreeColouring is experiment E2: the plan's colouring of the
// paper tree reproduces Figure 5 — conflicts exactly on ⟨CRU1,CRU2⟩ and
// ⟨CRU1,CRU3⟩, must-host set exactly {CRU1, CRU2, CRU3} and the ten CRU
// edge colours.
func TestPaperTreeColouring(t *testing.T) {
	tree := workload.PaperTree()
	c := model.Compile(tree)

	var conflicts, hosts []string
	for _, p := range c.Pre {
		name := tree.Node(c.Post[p]).Name
		if c.Parent[p] >= 0 && c.Colour[p] == model.NoSatellite {
			conflicts = append(conflicts, name)
		}
		if c.MustHost[p] {
			hosts = append(hosts, name)
		}
	}
	if got := strings.Join(conflicts, " "); got != "CRU2 CRU3" {
		t.Errorf("conflict edges into %q, want CRU2 CRU3 (Figure 5)", got)
	}
	if got := strings.Join(hosts, " "); got != "CRU1 CRU2 CRU3" {
		t.Errorf("must-host = %q, want CRU1 CRU2 CRU3 (paper §5.1)", got)
	}

	wantColours := map[string]string{
		"CRU4": "R", "CRU9": "R", "CRU10": "R", "CRU11": "R",
		"CRU5": "B", "CRU6": "B", "CRU13": "B",
		"CRU7": "Y",
		"CRU8": "G", "CRU12": "G",
	}
	for name, want := range wantColours {
		id, ok := tree.NodeByName(name)
		if !ok {
			t.Fatalf("missing node %s", name)
		}
		colour := c.Colour[c.Pos[id]]
		if colour == model.NoSatellite {
			t.Errorf("edge into %s conflicts, want colour %s", name, want)
			continue
		}
		if got := tree.SatelliteName(colour); got != want {
			t.Errorf("edge into %s coloured %s, want %s", name, got, want)
		}
	}
}

func TestPaperTreeRegions(t *testing.T) {
	tree := workload.PaperTree()
	c := model.Compile(tree)
	var regions []string
	for _, p := range regionRoots(c) {
		regions = append(regions, tree.Node(c.Post[p]).Name+"@"+tree.SatelliteName(c.Colour[p]))
	}
	if got := strings.Join(regions, " "); got != "CRU4@R CRU5@B CRU6@B CRU7@Y CRU8@G" {
		t.Errorf("regions = %q, want CRU4@R CRU5@B CRU6@B CRU7@Y CRU8@G", got)
	}
}

func TestPaperTreeBandsContiguous(t *testing.T) {
	tree := workload.PaperTree()
	c := model.Compile(tree)
	// Leaf order R R R B B Y G: every colour is one band; B covers 3..4.
	for _, sat := range tree.Satellites() {
		if !c.Contiguous(sat.ID) {
			t.Errorf("colour %s is not contiguous", sat.Name)
		}
		if sat.Name == "B" {
			if b := c.Bands(sat.ID); len(b) != 1 || b[0] != (model.LeafSpan{Lo: 3, Hi: 4}) {
				t.Errorf("B bands = %+v, want [{3 4}]", b)
			}
		}
	}
}

// TestMustHostUpwardClosedProperty: on random trees the must-host closure
// is upward closed, and an edge conflicts exactly when the subtree below it
// spans two or more satellites.
func TestMustHostUpwardClosedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		spec := workload.DefaultRandomSpec(2+rng.Intn(30), 1+rng.Intn(5))
		spec.Clustered = trial%2 == 0
		tree := workload.Random(rng, spec)
		c := model.Compile(tree)
		for p := range c.Post {
			par := c.Parent[p]
			if !c.Proc[p] || par < 0 {
				continue
			}
			name := tree.Node(c.Post[p]).Name
			if c.MustHost[p] && !c.MustHost[par] {
				t.Fatalf("trial %d: must-host not upward closed at %s", trial, name)
			}
			conflict := c.Colour[p] == model.NoSatellite
			if conflict != (len(tree.SubtreeSatellites(c.Post[p])) >= 2) {
				t.Fatalf("trial %d: conflict flag inconsistent at %s", trial, name)
			}
		}
	}
}

// TestRegionsPartitionNonHostNodesProperty: every processing CRU is either
// must-host or inside exactly one region, and every sensor is inside
// exactly one region (a sensor directly under a must-host CRU is a region
// of its own).
func TestRegionsPartitionNonHostNodesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		tree := workload.Random(rng, workload.DefaultRandomSpec(2+rng.Intn(25), 1+rng.Intn(4)))
		c := model.Compile(tree)
		covered := make([]int, c.Len())
		for _, r := range regionRoots(c) {
			if c.Colour[r] == model.NoSatellite {
				t.Fatalf("trial %d: region %s is not monochromatic", trial, tree.Node(c.Post[r]).Name)
			}
			for q := c.Start[r]; q <= r; q++ {
				covered[q]++
			}
		}
		for p := range covered {
			want := 1
			if c.MustHost[p] {
				want = 0
			}
			if covered[p] != want {
				t.Fatalf("trial %d: node %s covered %d times, want %d",
					trial, tree.Node(c.Post[p]).Name, covered[p], want)
			}
		}
	}
}

// TestTopmostAssignment: the maximal distribution keeps exactly the
// must-host closure on the host, and it is a valid assignment.
func TestTopmostAssignment(t *testing.T) {
	tree := workload.PaperTree()
	asg := model.Compile(tree).TopmostAssignment()
	if err := asg.Validate(tree); err != nil {
		t.Fatalf("topmost assignment invalid: %v", err)
	}
	if got := len(asg.HostSet(tree)); got != 3 {
		t.Errorf("topmost host set size = %d, want 3 (CRU1..3)", got)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		spec := workload.DefaultRandomSpec(2+rng.Intn(30), 1+rng.Intn(5))
		spec.Clustered = trial%2 == 0
		tr := workload.Random(rng, spec)
		c := model.Compile(tr)
		asg := c.TopmostAssignment()
		if err := asg.Validate(tr); err != nil {
			t.Fatalf("trial %d: invalid topmost: %v", trial, err)
		}
		for p := range c.Post {
			if c.Proc[p] && asg.At(c.Post[p]).IsHost() != c.MustHost[p] {
				t.Fatalf("trial %d: %s on host = %v, must-host = %v",
					trial, tr.Node(c.Post[p]).Name, asg.At(c.Post[p]).IsHost(), c.MustHost[p])
			}
		}
	}
}

func TestScatteredColoursNotContiguous(t *testing.T) {
	// Leaf order s0, s1, s0: s0 has two bands.
	b := model.NewBuilder()
	s0 := b.Satellite("s0")
	s1 := b.Satellite("s1")
	root := b.Root("root", 1, 1)
	for i, sat := range []model.SatelliteID{s0, s1, s0} {
		c := b.Child(root, "c"+string(rune('0'+i)), 1, 1, 1)
		b.Sensor(c, "x"+string(rune('0'+i)), sat, 1)
	}
	c := model.Compile(b.MustBuild())
	if c.Contiguous(s0) || len(c.Bands(s0)) != 2 {
		t.Errorf("s0 bands = %+v, want two", c.Bands(s0))
	}
	if !c.Contiguous(s1) {
		t.Errorf("s1 bands = %+v, want one", c.Bands(s1))
	}
}

func TestSingleSatelliteTree(t *testing.T) {
	b := model.NewBuilder()
	s0 := b.Satellite("only")
	root := b.Root("root", 1, 1)
	mid := b.Child(root, "c", 1, 1, 1)
	b.Sensor(mid, "x", s0, 1)
	tree := b.MustBuild()
	c := model.Compile(tree)
	// No conflicts; only the root is pinned (application convention).
	for p := range c.Post {
		if c.Colour[p] != s0 {
			t.Errorf("%s coloured %v, want %v", tree.Node(c.Post[p]).Name, c.Colour[p], s0)
		}
		if c.MustHost[p] != (c.Post[p] == root) {
			t.Errorf("%s must-host = %v", tree.Node(c.Post[p]).Name, c.MustHost[p])
		}
	}
	if r := regionRoots(c); len(r) != 1 || c.Post[r[0]] != mid {
		t.Errorf("regions = %v, want just c", r)
	}
}

func TestSensorDirectlyUnderConflictNode(t *testing.T) {
	// A sensor hanging directly off a must-host CRU forms a degenerate
	// region (its edge is always cut).
	b := model.NewBuilder()
	s0 := b.Satellite("s0")
	s1 := b.Satellite("s1")
	root := b.Root("root", 1, 1)
	direct := b.Sensor(root, "direct", s0, 1)
	mid := b.Child(root, "c", 1, 1, 1)
	b.Sensor(mid, "x", s1, 1)
	c := model.Compile(b.MustBuild())
	r := regionRoots(c)
	if len(r) != 2 || c.Post[r[0]] != direct || c.Post[r[1]] != mid {
		t.Fatalf("regions = %v, want the direct sensor then c", r)
	}
	if c.Colour[r[0]] != s0 {
		t.Errorf("direct sensor region coloured %v, want %v", c.Colour[r[0]], s0)
	}
}
