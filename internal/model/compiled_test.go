package model

import (
	"math/rand"
	"testing"
)

// buildCompiledFixture assembles a small mixed tree by hand:
//
//	root ── a ── s1(@X) s2(@X)
//	    └── b ── c ── s3(@Y)
//	         └── s4(@Y)
func buildCompiledFixture(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	x := b.Satellite("X")
	y := b.Satellite("Y")
	root := b.Root("root", 3, 9)
	a := b.Child(root, "a", 2, 5, 1.5)
	bb := b.Child(root, "b", 2.5, 6, 1)
	c := b.Child(bb, "c", 1, 2, 0.5)
	b.Sensor(a, "s1", x, 4)
	b.Sensor(a, "s2", x, 4.5)
	b.Sensor(c, "s3", y, 3)
	b.Sensor(bb, "s4", y, 2)
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

// checkCompiledInvariants cross-checks every derived array of the plan
// against derivations from the nodes' links alone and a from-scratch
// recomputation.
func checkCompiledInvariants(t *testing.T, tree *Tree, c *Compiled) {
	t.Helper()
	n := tree.Len()
	if c.Len() != n {
		t.Fatalf("plan has %d nodes, tree has %d", c.Len(), n)
	}
	sets := refSubtreeSats(tree)
	isAncestorOrSelf := func(a, b NodeID) bool {
		for ; b != None; b = tree.Node(b).Parent {
			if b == a {
				return true
			}
		}
		return false
	}
	// Child-order satellite loads and leaf ranges by recursion.
	subSat := make([]float64, n)
	leafLo, leafHi := make([]int, n), make([]int, n)
	nextLeaf := 0
	var walk func(id NodeID)
	walk = func(id NodeID) {
		nd := tree.Node(id)
		subSat[id] = nd.SatTime
		leafLo[id] = nextLeaf
		if nd.Kind == SensorKind {
			nextLeaf++
		}
		for _, ch := range nd.Children {
			walk(ch)
			subSat[id] += subSat[ch]
		}
		leafHi[id] = nextLeaf - 1
	}
	walk(tree.Root())
	seen := make([]bool, n)
	for p, id := range c.Post {
		if id != tree.Postorder()[p] {
			t.Fatalf("Post[%d] = %d, postorder says %d", p, id, tree.Postorder()[p])
		}
		if c.Pos[id] != int32(p) {
			t.Fatalf("Pos[%d] = %d, want %d", id, c.Pos[id], p)
		}
		seen[id] = true
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("node %d missing from Post", id)
		}
	}
	for i, id := range tree.Preorder() {
		if c.Pre[i] != c.Pos[id] {
			t.Fatalf("Pre[%d] = %d, want position of node %d", i, c.Pre[i], id)
		}
	}
	for p := int32(0); p < int32(n); p++ {
		id := c.Post[p]
		nd := tree.Node(id)
		if got := c.Proc[p]; got != (nd.Kind == Processing) {
			t.Fatalf("Proc[%d] = %v for kind %v", p, got, nd.Kind)
		}
		if c.HostTime[p] != nd.HostTime || c.SatTime[p] != nd.SatTime || c.UpComm[p] != nd.UpComm {
			t.Fatalf("profiles of position %d diverge from node %q", p, nd.Name)
		}
		if nd.Parent == None {
			if c.Parent[p] != -1 {
				t.Fatalf("root position %d has parent %d", p, c.Parent[p])
			}
		} else if c.Post[c.Parent[p]] != nd.Parent {
			t.Fatalf("Parent[%d] maps to node %d, want %d", p, c.Post[c.Parent[p]], nd.Parent)
		}
		kids := c.Children(p)
		if len(kids) != len(nd.Children) {
			t.Fatalf("position %d has %d children, node has %d", p, len(kids), len(nd.Children))
		}
		for k, ch := range kids {
			if c.Post[ch] != nd.Children[k] {
				t.Fatalf("child %d of position %d is node %d, want %d", k, p, c.Post[ch], nd.Children[k])
			}
		}
		// Subtree span: exactly the positions of id's descendants.
		for q := int32(0); q < int32(n); q++ {
			inSpan := q >= c.Start[p] && q <= p
			if inSpan != isAncestorOrSelf(id, c.Post[q]) {
				t.Fatalf("span of %q misclassifies node %q", nd.Name, tree.Node(c.Post[q]).Name)
			}
		}
		if c.SubSat[p] != subSat[id] {
			t.Fatalf("SubSat[%d] = %v, child-order sum %v", p, c.SubSat[p], subSat[id])
		}
		// Colour and must-host against the subtree satellite sets.
		sats := sets[id]
		wantColour := NoSatellite
		if len(sats) == 1 {
			wantColour = sats[0]
		}
		if c.Colour[p] != wantColour {
			t.Fatalf("Colour[%d] = %v, want %v", p, c.Colour[p], wantColour)
		}
		wantMust := nd.Kind == Processing && (len(sats) != 1 || id == tree.Root())
		if c.MustHost[p] != wantMust {
			t.Fatalf("MustHost[%d] = %v, want %v", p, c.MustHost[p], wantMust)
		}
		lo, hi := leafLo[id], leafHi[id]
		if int(c.LeafLo[p]) != lo || int(c.LeafHi[p]) != hi {
			t.Fatalf("leaf range of %q = [%d,%d], want [%d,%d]", nd.Name, c.LeafLo[p], c.LeafHi[p], lo, hi)
		}
	}
	// Aggregates recomputed from scratch.
	for p := int32(0); p < int32(n); p++ {
		var sh, sc, forced float64
		for q := c.Start[p]; q <= p; q++ {
			sh += c.HostTime[q]
			sc += c.UpComm[q]
			if c.MustHost[q] {
				forced += c.HostTime[q]
			}
		}
		if !almostEq(c.SubHost[p], sh) || !almostEq(c.SubComm[p], sc) || !almostEq(c.Forced[p], forced) {
			t.Fatalf("aggregates of position %d diverge: SubHost %v/%v SubComm %v/%v Forced %v/%v",
				p, c.SubHost[p], sh, c.SubComm[p], sc, c.Forced[p], forced)
		}
	}
	// σ labels: reference recomputation over node structs.
	wIn := make([]float64, n)
	sigma := make([]float64, n)
	for _, id := range tree.Preorder() {
		nd := tree.Node(id)
		if nd.Kind != Processing {
			continue
		}
		for k, ch := range nd.Children {
			label := 0.0
			if k == 0 {
				label = wIn[id] + nd.HostTime
			}
			sigma[ch] = label
			wIn[ch] = label
		}
	}
	for id := 0; id < n; id++ {
		if c.Sigma[c.Pos[id]] != sigma[id] {
			t.Fatalf("Sigma of node %d = %v, want %v", id, c.Sigma[c.Pos[id]], sigma[id])
		}
	}
	// Bands partition the planar leaf order per satellite.
	leafCount := 0
	for sat := range c.SatBands {
		for _, b := range c.SatBands[sat] {
			if b.Lo > b.Hi {
				t.Fatalf("satellite %d has inverted band %+v", sat, b)
			}
			for i := b.Lo; i <= b.Hi; i++ {
				leafCount++
				if c.Sensor[c.Leaves[i]] != SatelliteID(sat) {
					t.Fatalf("band %+v of satellite %d covers a leaf of satellite %d",
						b, sat, c.Sensor[c.Leaves[i]])
				}
			}
		}
	}
	if leafCount != tree.SensorCount() {
		t.Fatalf("bands cover %d leaves, tree has %d sensors", leafCount, tree.SensorCount())
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+maxAbs(a, b))
}

func maxAbs(a, b float64) float64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

func TestCompileInvariantsFixture(t *testing.T) {
	tree := buildCompiledFixture(t)
	c := Compile(tree)
	if c2 := Compile(tree); c2 != c {
		t.Fatalf("Compile is not memoised on the tree")
	}
	checkCompiledInvariants(t, tree, c)
}

func TestCompileInvariantsRandom(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		tree := randomTreeForCompile(rand.New(rand.NewSource(seed)))
		checkCompiledInvariants(t, tree, Compile(tree))
	}
}

// randomTreeForCompile grows a random valid tree without importing the
// workload package (which would cycle).
func randomTreeForCompile(rng *rand.Rand) *Tree {
	b := NewBuilder()
	sats := make([]SatelliteID, 2+rng.Intn(3))
	for i := range sats {
		sats[i] = b.Satellite(string(rune('A' + i)))
	}
	root := b.Root("n0", 1+rng.Float64()*3, 2+rng.Float64()*6)
	open := []NodeID{root}
	nodes := 1 + rng.Intn(20)
	ids := []NodeID{root}
	for i := 1; i <= nodes; i++ {
		parent := open[rng.Intn(len(open))]
		id := b.Child(parent, "n"+itoa(i), 1+rng.Float64()*3, 2+rng.Float64()*6, rng.Float64())
		open = append(open, id)
		ids = append(ids, id)
	}
	// Sensors under every CRU: leaf CRUs become valid (every leaf must be
	// a sensor) and inner CRUs simply gain extra leaves, exercising mixed
	// sensor/CRU sibling lists in the plan.
	sensorN := 0
	for _, id := range ids {
		k := 1 + rng.Intn(2)
		for j := 0; j < k; j++ {
			b.Sensor(id, "s"+itoa(sensorN), sats[rng.Intn(len(sats))], rng.Float64()*4)
			sensorN++
		}
	}
	return b.MustBuild()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// TestAdoptCompiledPlanPatchesProfiles checks the incremental fast path:
// a profile edit hands the new revision a plan that (a) shares every
// structural array with the base plan and (b) is element-for-element
// identical to a from-scratch compilation of the same revision.
func TestAdoptCompiledPlanPatchesProfiles(t *testing.T) {
	tree := buildCompiledFixture(t)
	base := Compile(tree)

	e := tree.Edit()
	id, _ := e.NodeByName("b")
	e.SetTimes(id, 4.25, 7.5)
	cid, _ := e.NodeByName("c")
	e.SetUpComm(cid, 0.75)
	next, err := e.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	patched := next.cpl.Load()
	if patched == nil {
		t.Fatalf("profile edit did not transfer a compiled plan")
	}
	if &patched.Post[0] != &base.Post[0] || &patched.Child[0] != &base.Child[0] || &patched.Start[0] != &base.Start[0] {
		t.Fatalf("patched plan does not share the base's structural arrays")
	}
	if &patched.HostTime[0] == &base.HostTime[0] {
		t.Fatalf("patched plan aliases the base's float arrays")
	}

	// A fresh compile of an identical tree must agree bit for bit.
	fresh := compile(next)
	for p := 0; p < fresh.Len(); p++ {
		if patched.HostTime[p] != fresh.HostTime[p] || patched.SatTime[p] != fresh.SatTime[p] ||
			patched.UpComm[p] != fresh.UpComm[p] || patched.SubSat[p] != fresh.SubSat[p] ||
			patched.SubHost[p] != fresh.SubHost[p] || patched.SubComm[p] != fresh.SubComm[p] ||
			patched.Forced[p] != fresh.Forced[p] || patched.Sigma[p] != fresh.Sigma[p] {
			t.Fatalf("patched plan diverges from fresh compile at position %d", p)
		}
	}
	// The base tree's plan is untouched.
	checkCompiledInvariants(t, tree, base)
	checkCompiledInvariants(t, next, patched)
}

// FuzzCompile feeds arbitrary node tables to Validate and compiles every
// tree that passes, asserting the plan invariants hold: Compile must
// never panic or mis-derive on any tree Validate admits, and malformed
// trees must be rejected before compilation is ever attempted.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 1, 1, 0, 10, 20, 5})
	f.Add([]byte{4, 2, 0, 0, 1, 0, 1, 0, 1, 1, 1, 3, 7, 9, 11, 2, 2})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, ok := treeFromFuzz(data)
		if !ok {
			return
		}
		if err := tree.Validate(); err != nil {
			return // malformed: rejected before any compilation
		}
		tree.refreshCaches(new(buildScratch))
		checkCompiledInvariants(t, tree, Compile(tree))
	})
}

// treeFromFuzz decodes a node table from raw bytes: byte 0 is the node
// count, byte 1 the satellite count, then per node a parent byte and a
// kind/satellite byte, then profile bytes. The decoder builds the raw
// Tree struct directly (no Builder) so structurally broken inputs reach
// Validate.
func treeFromFuzz(data []byte) (*Tree, bool) {
	if len(data) < 2 {
		return nil, false
	}
	n := int(data[0]) % 24
	k := 1 + int(data[1])%4
	need := 2 + 2*n
	if n == 0 || len(data) < need {
		return nil, false
	}
	t := &Tree{nodes: make([]Node, n)}
	for i := 0; i < k; i++ {
		t.satellites = append(t.satellites, Satellite{ID: SatelliteID(i), Name: string(rune('A' + i))})
	}
	prof := data[need:]
	pf := func(j int) float64 {
		if len(prof) == 0 {
			return 1
		}
		return float64(prof[j%len(prof)]) / 8
	}
	rootSeen := false
	for i := 0; i < n; i++ {
		parent := int(data[2+2*i])
		kindSat := data[3+2*i]
		nd := &t.nodes[i]
		nd.ID = NodeID(i)
		nd.Name = "f" + itoa(i)
		nd.Satellite = NoSatellite
		if parent >= n || parent == i {
			nd.Parent = None
			if !rootSeen {
				t.root = NodeID(i)
				rootSeen = true
			}
		} else {
			nd.Parent = NodeID(parent)
			t.nodes[parent].Children = append(t.nodes[parent].Children, NodeID(i))
		}
		if kindSat&1 == 1 {
			nd.Kind = SensorKind
			nd.Satellite = SatelliteID(int(kindSat>>1) % (k + 1)) // may be out of range: Validate's job
			if nd.Satellite == SatelliteID(k) {
				nd.Satellite = NoSatellite
			}
			nd.UpComm = pf(3 * i)
		} else {
			nd.Kind = Processing
			nd.HostTime = pf(3 * i)
			nd.SatTime = pf(3*i + 1)
			nd.UpComm = pf(3*i + 2)
		}
	}
	if !rootSeen {
		return nil, false
	}
	// Children were appended in child-index order, which may differ from
	// any planar embedding — that is fine, Validate only checks link
	// consistency, and compile must handle any admitted shape.
	return t, true
}
