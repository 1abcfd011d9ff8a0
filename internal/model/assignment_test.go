package model

import (
	"math/rand"
	"slices"
	"testing"
)

// refSubtreeSats derives every node's sorted distinct sensor satellites
// by a recursive walk of the children lists.
func refSubtreeSats(t *Tree) [][]SatelliteID {
	sets := make([][]SatelliteID, t.Len())
	var walk func(id NodeID) []SatelliteID
	walk = func(id NodeID) []SatelliteID {
		n := t.Node(id)
		var set []SatelliteID
		if n.Kind == SensorKind {
			set = []SatelliteID{n.Satellite}
		}
		for _, c := range n.Children {
			for _, s := range walk(c) {
				if !slices.Contains(set, s) {
					set = append(set, s)
				}
			}
		}
		slices.Sort(set)
		sets[id] = set
		return set
	}
	walk(t.Root())
	return sets
}

// feasibleBySubtreeSets is the reference feasibility rule in its
// subtree-set form: sensors on their satellites, the root on the host,
// no host CRU below a satellite CRU, and every satellite-resident CRU on
// the one satellite all its sensors attach to, under a parent on the
// host or on that satellite.
func feasibleBySubtreeSets(t *Tree, sets [][]SatelliteID, a *Assignment) bool {
	if len(a.Loc) != t.Len() || !a.Loc[t.Root()].IsHost() {
		return false
	}
	for id := range t.Len() {
		n := t.Node(NodeID(id))
		loc := a.Loc[id]
		if n.Kind == SensorKind {
			if loc != OnSatellite(n.Satellite) {
				return false
			}
			continue
		}
		if sat, onSat := loc.Satellite(); onSat {
			if s := sets[id]; len(s) != 1 || s[0] != sat {
				return false
			}
			if p := n.Parent; p != None && !a.Loc[p].IsHost() && a.Loc[p] != loc {
				return false
			}
		} else if p := n.Parent; p != None && !a.Loc[p].IsHost() {
			return false
		}
	}
	return true
}

// randomAssignment draws a feasible assignment (random monochromatic
// subtrees hanging off the host sunk to their satellite) and then applies
// up to two perturbations: a sensor on a wrong satellite, a multi-colour
// CRU on a satellite, a host CRU below a satellite CRU, or any node on any
// location.
func randomAssignment(rng *rand.Rand, t *Tree, sets [][]SatelliteID) *Assignment {
	a := NewAssignment(t)
	for _, id := range t.Preorder() {
		n := t.Node(id)
		if n.Kind != Processing || id == t.Root() || !a.Loc[n.Parent].IsHost() {
			continue
		}
		if s := sets[id]; len(s) == 1 && rng.Intn(3) == 0 {
			var sink func(NodeID)
			sink = func(v NodeID) {
				if t.Node(v).Kind == Processing {
					a.Loc[v] = OnSatellite(s[0])
				}
				for _, c := range t.Node(v).Children {
					sink(c)
				}
			}
			sink(id)
		}
	}
	nsat := len(t.Satellites())
	randomLoc := func() Location {
		if k := rng.Intn(nsat + 1); k < nsat {
			return OnSatellite(SatelliteID(k))
		}
		return Host
	}
	for range rng.Intn(3) {
		id := NodeID(rng.Intn(t.Len()))
		n := t.Node(id)
		switch rng.Intn(4) {
		case 0:
			if n.Kind == SensorKind {
				a.Loc[id] = OnSatellite(SatelliteID((int(n.Satellite) + 1 + rng.Intn(nsat)) % nsat))
			}
		case 1:
			if n.Kind == Processing && len(sets[id]) > 1 {
				a.Loc[id] = OnSatellite(sets[id][rng.Intn(len(sets[id]))])
			}
		case 2:
			if n.Kind == Processing && n.Parent != None && !a.Loc[n.Parent].IsHost() {
				a.Loc[id] = Host
			}
		default:
			a.Loc[id] = randomLoc()
		}
	}
	return a
}

// TestValidateMatchesSubtreeSetRule is the property that the parent rule
// of Assignment.Validate, which reads no subtree facts, accepts exactly
// the assignments the subtree-set rule accepts, over random trees and
// random feasible and perturbed assignments. Validate must also leave
// the tree uncompiled.
func TestValidateMatchesSubtreeSetRule(t *testing.T) {
	accepted, rejected := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree, err := FromSpec(randomLayoutSpec(rng))
		if err != nil {
			t.Fatal(err)
		}
		sets := refSubtreeSats(tree)
		for k := 0; k < 40; k++ {
			a := randomAssignment(rng, tree, sets)
			want := feasibleBySubtreeSets(tree, sets, a)
			err := a.Validate(tree)
			if (err == nil) != want {
				t.Fatalf("seed %d assignment %d (%s): Validate = %v, subtree-set rule feasible = %v",
					seed, k, a.Key(), err, want)
			}
			if want {
				accepted++
			} else {
				rejected++
			}
		}
		if tree.cpl.Load() != nil {
			t.Fatalf("seed %d: Validate compiled the tree", seed)
		}
	}
	t.Logf("%d assignments accepted, %d rejected", accepted, rejected)
	if accepted < 1000 || rejected < 1000 {
		t.Fatalf("draws too one-sided to compare the rules: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestValidateRejectsEachViolation names one assignment per rule and
// checks both forms of the rule reject it.
func TestValidateRejectsEachViolation(t *testing.T) {
	// root ── x ── sA(@A) sB(@B)
	//      └── y ── z ── sA2(@A)
	b := NewBuilder()
	A, B := b.Satellite("A"), b.Satellite("B")
	root := b.Root("root", 1, 1)
	x := b.Child(root, "x", 1, 1, 1)
	sA := b.Sensor(x, "sA", A, 1)
	b.Sensor(x, "sB", B, 1)
	y := b.Child(root, "y", 1, 1, 1)
	z := b.Child(y, "z", 1, 1, 1)
	b.Sensor(z, "sA2", A, 1)
	tree := b.MustBuild()
	sets := refSubtreeSats(tree)
	for _, tc := range []struct {
		name string
		loc  map[NodeID]Location
	}{
		{"sensor on a wrong satellite", map[NodeID]Location{sA: OnSatellite(B)}},
		{"root on a satellite", map[NodeID]Location{root: OnSatellite(A)}},
		{"multi-colour CRU on a satellite", map[NodeID]Location{x: OnSatellite(A)}},
		{"CRU on a wrong satellite", map[NodeID]Location{y: OnSatellite(B), z: OnSatellite(B)}},
		{"host CRU below a satellite CRU", map[NodeID]Location{y: OnSatellite(A)}},
	} {
		a := NewAssignment(tree)
		for id, l := range tc.loc {
			a.Loc[id] = l
		}
		if feasibleBySubtreeSets(tree, sets, a) {
			t.Fatalf("%s: reference rule accepts it", tc.name)
		}
		err := a.Validate(tree)
		if err == nil {
			t.Fatalf("%s: Validate accepts it", tc.name)
		}
		t.Logf("%s: %v", tc.name, err)
	}
	a := NewAssignment(tree)
	a.Loc[y], a.Loc[z] = OnSatellite(A), OnSatellite(A)
	if err := a.Validate(tree); err != nil || !feasibleBySubtreeSets(tree, sets, a) {
		t.Fatalf("y and z on A: Validate = %v, want feasible", err)
	}
}
