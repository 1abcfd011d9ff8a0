package model

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refTree is the reference the storage-layout tests compare a Tree
// against: plain per-node maps keyed by name, built from the spec rows in
// order and kept in step with every edit.
type refTree struct {
	root     string
	parent   map[string]string
	children map[string][]string
	sat      map[string]string  // sensor -> satellite name
	satTime  map[string]float64 // CRU -> s
}

func newRefTree(s *Spec) *refTree {
	r := &refTree{parent: map[string]string{}, children: map[string][]string{}, sat: map[string]string{}, satTime: map[string]float64{}}
	for _, c := range s.CRUs {
		r.satTime[c.Name] = c.SatTime
		if c.Parent == "" {
			r.root = c.Name
			continue
		}
		r.add(c.Parent, c.Name)
	}
	for _, sn := range s.Sensors {
		r.add(sn.Parent, sn.Name)
		r.sat[sn.Name] = sn.Satellite
	}
	return r
}

func (r *refTree) add(parent, name string) {
	r.parent[name] = parent
	r.children[parent] = append(r.children[parent], name)
}

func (r *refTree) clone() *refTree {
	cp := &refTree{root: r.root, parent: map[string]string{}, children: map[string][]string{}, sat: map[string]string{}, satTime: maps.Clone(r.satTime)}
	for k, v := range r.parent {
		cp.parent[k] = v
	}
	for k, v := range r.children {
		cp.children[k] = slices.Clone(v)
	}
	for k, v := range r.sat {
		cp.sat[k] = v
	}
	return cp
}

func (r *refTree) detach(name string) {
	p := r.parent[name]
	r.children[p] = slices.DeleteFunc(slices.Clone(r.children[p]), func(c string) bool { return c == name })
	var drop func(string)
	drop = func(n string) {
		for _, c := range r.children[n] {
			drop(c)
		}
		delete(r.children, n)
		delete(r.parent, n)
		delete(r.sat, n)
		delete(r.satTime, n)
	}
	drop(name)
}

// attach mirrors Editor.Attach: fragment CRUs, then fragment sensors, each
// appended to its parent's list; an empty Parent means under.
func (r *refTree) attach(under string, frag *Spec) {
	parentOf := func(p string) string {
		if p == "" {
			return under
		}
		return p
	}
	for _, c := range frag.CRUs {
		r.add(parentOf(c.Parent), c.Name)
		r.satTime[c.Name] = c.SatTime
	}
	for _, sn := range frag.Sensors {
		r.add(parentOf(sn.Parent), sn.Name)
		r.sat[sn.Name] = sn.Satellite
	}
}

// leafOrder is the reference planar leaf order: a recursive walk of the
// children lists collecting sensors.
func (r *refTree) leafOrder() []string {
	var out []string
	var walk func(string)
	walk = func(n string) {
		if _, ok := r.sat[n]; ok {
			out = append(out, n)
		}
		for _, c := range r.children[n] {
			walk(c)
		}
	}
	walk(r.root)
	return out
}

// subSatTime is the reference satellite load of n's subtree: n's own s
// plus its children's loads, summed in child order.
func (r *refTree) subSatTime(n string) float64 {
	sum := r.satTime[n]
	for _, c := range r.children[n] {
		sum += r.subSatTime(c)
	}
	return sum
}

func (r *refTree) isAncestorOrSelf(a, b string) bool {
	for n := b; n != ""; n = r.parent[n] {
		if n == a {
			return true
		}
	}
	return false
}

// checkLayout compares every children list, leaf position, leaf range,
// subtree-satellite set, correspondent satellite, subtree satellite load
// (bit for bit) and ancestor relation of tree against the reference
// derivation.
func checkLayout(t *testing.T, tree *Tree, r *refTree, label string) {
	t.Helper()
	if got, want := tree.Len(), len(r.parent)+1; got != want {
		t.Fatalf("%s: %d nodes, reference has %d", label, got, want)
	}
	satID := map[string]SatelliteID{}
	for _, s := range tree.Satellites() {
		satID[s.Name] = s.ID
	}
	leaves := r.leafOrder()
	pos := map[string]int{}
	for i, l := range leaves {
		pos[l] = i
	}
	for i := 0; i < tree.Len(); i++ {
		id := NodeID(i)
		n := tree.Node(id)
		var kids []string
		for _, c := range n.Children {
			kids = append(kids, tree.Node(c).Name)
		}
		if !slices.Equal(kids, r.children[n.Name]) {
			t.Fatalf("%s: %s children %v, reference %v", label, n.Name, kids, r.children[n.Name])
		}
		if cap(n.Children) != len(n.Children) {
			t.Fatalf("%s: %s children list has spare capacity %d > %d", label, n.Name, cap(n.Children), len(n.Children))
		}

		wantPos := -1
		if p, ok := pos[n.Name]; ok {
			wantPos = p
		}
		if got := tree.LeafPosition(id); got != wantPos {
			t.Fatalf("%s: LeafPosition(%s) = %d, reference %d", label, n.Name, got, wantPos)
		}

		// Linear leaf scan for the range and the satellite set.
		lo, hi := -1, -1
		set := map[SatelliteID]bool{}
		for p, l := range leaves {
			if r.isAncestorOrSelf(n.Name, l) {
				if lo < 0 {
					lo = p
				}
				hi = p
				set[satID[r.sat[l]]] = true
			}
		}
		if gotLo, gotHi := tree.LeafRange(id); gotLo != lo || gotHi != hi {
			t.Fatalf("%s: LeafRange(%s) = [%d,%d], reference [%d,%d]", label, n.Name, gotLo, gotHi, lo, hi)
		}
		var sats []SatelliteID
		for s := range set {
			sats = append(sats, s)
		}
		slices.Sort(sats)
		if got := tree.SubtreeSatellites(id); !slices.Equal(got, sats) {
			t.Fatalf("%s: SubtreeSatellites(%s) = %v, reference %v", label, n.Name, got, sats)
		}
		wantCorr, wantMono := NoSatellite, len(sats) == 1
		if wantMono {
			wantCorr = sats[0]
		}
		if got, mono := tree.CorrespondentSatellite(id); got != wantCorr || mono != wantMono {
			t.Fatalf("%s: CorrespondentSatellite(%s) = %v,%v, reference %v,%v", label, n.Name, got, mono, wantCorr, wantMono)
		}
		if got, want := tree.SubtreeSatTime(id), r.subSatTime(n.Name); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: SubtreeSatTime(%s) = %v, reference %v", label, n.Name, got, want)
		}
		for j := 0; j < tree.Len(); j++ {
			m := tree.Node(NodeID(j)).Name
			if got, want := tree.IsAncestorOrSelf(id, NodeID(j)), r.isAncestorOrSelf(n.Name, m); got != want {
				t.Fatalf("%s: IsAncestorOrSelf(%s, %s) = %v, reference %v", label, n.Name, m, got, want)
			}
		}
	}
	if tree.LeafPosition(-1) != -1 || tree.LeafPosition(NodeID(tree.Len())) != -1 {
		t.Fatalf("%s: LeafPosition of an out-of-range ID is not -1", label)
	}
}

// randomLayoutSpec draws a random valid spec whose CRU and sensor rows
// interleave in the children lists.
func randomLayoutSpec(rng *rand.Rand) *Spec {
	s := &Spec{}
	for i := 0; i < 2+rng.Intn(3); i++ {
		s.Satellites = append(s.Satellites, string(rune('A'+i)))
	}
	s.CRUs = []SpecCRU{{Name: "c0", HostTime: 1 + rng.Float64()*3, SatTime: 2 + rng.Float64()*6}}
	for i := 1; i <= 1+rng.Intn(24); i++ {
		s.CRUs = append(s.CRUs, SpecCRU{
			Name: fmt.Sprintf("c%d", i), Parent: s.CRUs[rng.Intn(len(s.CRUs))].Name,
			HostTime: 1 + rng.Float64()*3, SatTime: 2 + rng.Float64()*6, Comm: rng.Float64(),
		})
	}
	for _, c := range s.CRUs {
		for j := 0; j < 1+rng.Intn(2); j++ {
			s.Sensors = append(s.Sensors, SpecSensor{
				Name: fmt.Sprintf("s%d", len(s.Sensors)), Parent: c.Name,
				Satellite: s.Satellites[rng.Intn(len(s.Satellites))], Comm: rng.Float64() * 4,
			})
		}
	}
	return s
}

// TestLayoutMatchesReference is the parity property of the shared
// children storage and of the subtree facts the plan holds: over random
// trees and random Editor sequences (Detach, Attach, profile edits),
// every children list, LeafPosition, LeafRange, SubtreeSatellites,
// CorrespondentSatellite, SubtreeSatTime and IsAncestorOrSelf equals the
// reference derivation on base, profile-edited and structurally edited
// revisions, and every base tree still matches its own reference after
// its successors were built.
func TestLayoutMatchesReference(t *testing.T) {
	profileEdits := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomLayoutSpec(rng)
		tree, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTree(spec)
		checkLayout(t, tree, ref, fmt.Sprintf("seed %d build", seed))
		checkLayout(t, tree.Clone(), ref, fmt.Sprintf("seed %d clone", seed))

		fresh := 0
		for round := 0; round < 8; round++ {
			label := fmt.Sprintf("seed %d round %d", seed, round)
			prev, prevRef := tree, ref.clone()
			e := tree.Edit()
			structural := false
			for k := 0; k < 1+rng.Intn(3); k++ {
				names := make([]string, 0, len(ref.parent))
				for n := range ref.parent {
					names = append(names, n)
				}
				slices.Sort(names)
				switch op := rng.Intn(3); {
				case op == 0 && len(names) > 0:
					// Detach a node whose parent keeps another child, so the
					// parent does not become a processing leaf.
					name := names[rng.Intn(len(names))]
					if len(ref.children[ref.parent[name]]) < 2 {
						continue
					}
					id, _ := e.NodeByName(name)
					e.Detach(id)
					ref.detach(name)
					structural = true
				case op == 1:
					var crus []string
					for _, n := range append(names, ref.root) {
						if _, sensor := ref.sat[n]; !sensor {
							crus = append(crus, n)
						}
					}
					under := crus[rng.Intn(len(crus))]
					fresh++
					cru := fmt.Sprintf("x%d", fresh)
					frag := &Spec{
						Satellites: []string{fmt.Sprintf("N%d", fresh)},
						CRUs:       []SpecCRU{{Name: cru, HostTime: 1, SatTime: 2, Comm: 0.5}},
						Sensors: []SpecSensor{
							{Name: cru + "-s0", Parent: cru, Satellite: "A", Comm: 1},
							{Name: cru + "-s1", Parent: cru, Satellite: fmt.Sprintf("N%d", fresh), Comm: 1},
						},
					}
					if rng.Intn(2) == 0 {
						frag.Sensors = append(frag.Sensors, SpecSensor{Name: cru + "-s2", Satellite: "A", Comm: 2})
					}
					id, _ := e.NodeByName(under)
					e.Attach(id, frag)
					ref.attach(under, frag)
					structural = true
				default:
					var crus []string
					for n := range ref.satTime {
						crus = append(crus, n)
					}
					slices.Sort(crus)
					name := crus[rng.Intn(len(crus))]
					id, _ := e.NodeByName(name)
					st := 2 + rng.Float64()
					e.SetTimes(id, 1+rng.Float64(), st)
					ref.satTime[name] = st
				}
			}
			next, err := e.Build()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if structural {
				label += " structural"
			} else {
				// The base was compiled by its own check, so this
				// revision reads a plan patched along the edited spines.
				label += " profile-edited"
				profileEdits++
			}
			checkLayout(t, next, ref, label)
			checkLayout(t, prev, prevRef, label+" base")
			tree = next
		}
	}
	if profileEdits < 20 {
		t.Fatalf("only %d profile-edited revisions checked", profileEdits)
	}
}

// TestEditorsShareBaseChildren runs two Editors of one base at once, each
// attaching under the same parent. The working copies share the base's
// children storage, so an append that did not copy would race (under
// -race) and overwrite the next node's children in the base.
func TestEditorsShareBaseChildren(t *testing.T) {
	base := randomTreeForCompile(rand.New(rand.NewSource(7)))
	before := make([][]NodeID, base.Len())
	for i := range before {
		before[i] = slices.Clone(base.Node(NodeID(i)).Children)
	}
	parent := base.Root()

	var wg sync.WaitGroup
	trees := make([]*Tree, 2)
	errs := make([]error, 2)
	for i := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("graft-%d", i)
			e := base.Edit()
			e.Attach(parent, &Spec{
				CRUs:    []SpecCRU{{Name: name, HostTime: 1, SatTime: 2, Comm: 0.5}},
				Sensors: []SpecSensor{{Name: name + "-probe", Parent: name, Satellite: "A", Comm: 1}},
			})
			trees[i], errs[i] = e.Build()
		}()
	}
	wg.Wait()

	for i := range before {
		if got := base.Node(NodeID(i)).Children; !slices.Equal(got, before[i]) {
			t.Fatalf("base node %d children changed: %v -> %v", i, before[i], got)
		}
	}
	for i, tree := range trees {
		if errs[i] != nil {
			t.Fatalf("editor %d: %v", i, errs[i])
		}
		kids := tree.Node(tree.Root()).Children
		if len(kids) != len(before[parent])+1 {
			t.Fatalf("editor %d: root has %d children, want %d", i, len(kids), len(before[parent])+1)
		}
		if got, want := tree.Node(kids[len(kids)-1]).Name, fmt.Sprintf("graft-%d", i); got != want {
			t.Errorf("editor %d: rightmost root child %s, want %s", i, got, want)
		}
	}
}
