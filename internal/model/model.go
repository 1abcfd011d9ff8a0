package model

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node (processing CRU or sensor) inside one Tree.
// IDs are dense indices in [0, Tree.Len()).
type NodeID int

// None is the sentinel NodeID used for "no node" (e.g. the root's parent).
const None NodeID = -1

// SatelliteID identifies a satellite of the star network. The host is not a
// satellite; it is represented by the distinct Location value Host.
type SatelliteID int

// NoSatellite is the sentinel for "not attached to any satellite", used for
// processing CRUs whose subtree spans several satellites.
const NoSatellite SatelliteID = -1

// Kind distinguishes processing CRUs from sensors. Sensors are "a kind of
// CRU at the leaf level which does not perform any context processing"
// (paper §3): they have no execution times and are physically bound to a
// satellite.
type Kind uint8

const (
	// Processing marks a CRU that executes reasoning work (h_i, s_i > 0
	// allowed) and may be placed on the host or its correspondent satellite.
	Processing Kind = iota
	// SensorKind marks a leaf sensor: it captures raw context, performs no
	// processing, and is pinned to the satellite it is wired to.
	SensorKind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Processing:
		return "cru"
	case SensorKind:
		return "sensor"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is one vertex of a CRU tree. For Processing nodes, HostTime and
// SatTime are the per-frame execution times h_i and s_i of the paper, and
// UpComm is c_{i,parent}: the time to ship one processed frame from this CRU
// to its parent over the host↔satellite link. For sensors, UpComm is
// c_{s,parent}: the time to ship one raw frame to the parent CRU, and
// Satellite records the physical attachment.
type Node struct {
	ID       NodeID
	Name     string
	Kind     Kind
	Parent   NodeID   // None for the root
	Children []NodeID // ordered left-to-right; defines the planar embedding

	HostTime float64 // h_i; 0 for sensors
	SatTime  float64 // s_i; 0 for sensors
	UpComm   float64 // c_{i,parent} (or c_{s,parent} for sensors); 0 for the root

	Satellite SatelliteID // physical attachment; NoSatellite unless Kind == SensorKind
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Satellite describes one satellite of the star network.
type Satellite struct {
	ID   SatelliteID
	Name string // also used as the "colour" name in reports (e.g. "R", "B")
}

// Tree is a validated, immutable ordered CRU tree together with its satellite
// set and cached structural indices. Construct one with Builder or FromSpec;
// the zero Tree is not usable.
//
// Structural invariants (checked by Validate, guaranteed after Build):
//   - exactly one root; parent/child links are mutually consistent and
//     acyclic; Children orders are permutation-free (no duplicates);
//   - every leaf is a sensor and every sensor is a leaf;
//   - sensors reference existing satellites;
//   - all times and communication costs are finite and non-negative.
type Tree struct {
	nodes      []Node
	root       NodeID
	satellites []Satellite

	// Caches, all derived during Build/refreshCaches.
	preorder  []NodeID        // DFS pre-order, children visited left-to-right
	postorder []NodeID        // DFS post-order
	leaves    []NodeID        // sensors in left-to-right (planar) order
	leafLo    []int           // per node: first leaf position in its subtree
	leafHi    []int           // per node: last leaf position in its subtree
	depth     []int           // per node: root has depth 0
	subSat    []float64       // per node: Σ SatTime over its subtree
	subSats   [][]SatelliteID // per node: sorted distinct satellites under it, in one shared array

	fpm atomic.Pointer[fpMemo]   // memoised Fingerprint state; cleared by refreshCaches
	cpl atomic.Pointer[Compiled] // memoised Compile plan; cleared by refreshCaches
}

// Len returns the number of nodes (processing CRUs plus sensors).
func (t *Tree) Len() int { return len(t.nodes) }

// Root returns the root node's ID.
func (t *Tree) Root() NodeID { return t.root }

// Node returns the node with the given ID. It panics on out-of-range IDs,
// matching slice semantics; IDs always come from the tree itself.
func (t *Tree) Node(id NodeID) *Node { return &t.nodes[id] }

// Satellites returns the satellites in ID order. The returned slice is
// shared; callers must not modify it.
func (t *Tree) Satellites() []Satellite { return t.satellites }

// SatelliteByID returns the satellite record for id.
func (t *Tree) SatelliteByID(id SatelliteID) (Satellite, bool) {
	if id < 0 || int(id) >= len(t.satellites) {
		return Satellite{}, false
	}
	return t.satellites[id], true
}

// SatelliteName returns a printable name for id ("?" when unknown).
func (t *Tree) SatelliteName(id SatelliteID) string {
	if s, ok := t.SatelliteByID(id); ok {
		return s.Name
	}
	return "?"
}

// NodeByName returns the first node with the given name.
func (t *Tree) NodeByName(name string) (NodeID, bool) {
	for i := range t.nodes {
		if t.nodes[i].Name == name {
			return t.nodes[i].ID, true
		}
	}
	return None, false
}

// Preorder returns the nodes in DFS pre-order (root first, children
// left-to-right). The slice is shared; callers must not modify it.
func (t *Tree) Preorder() []NodeID { return t.preorder }

// Postorder returns the nodes in DFS post-order (children before parents).
func (t *Tree) Postorder() []NodeID { return t.postorder }

// Leaves returns the sensors in left-to-right planar order. This order
// defines the faces of the assignment graph.
func (t *Tree) Leaves() []NodeID { return t.leaves }

// LeafPosition returns the 0-based position of sensor id in the planar leaf
// order, or -1 if id is not a sensor.
func (t *Tree) LeafPosition(id NodeID) int {
	if id < 0 || int(id) >= len(t.nodes) || t.nodes[id].Kind != SensorKind {
		return -1
	}
	return t.leafLo[id]
}

// LeafRange returns the inclusive range [lo, hi] of leaf positions covered by
// the subtree rooted at id. For a sensor, lo == hi == its own position.
func (t *Tree) LeafRange(id NodeID) (lo, hi int) { return t.leafLo[id], t.leafHi[id] }

// Depth returns the number of edges between the root and id.
func (t *Tree) Depth(id NodeID) int { return t.depth[id] }

// SubtreeSatTime returns Σ s_k over all nodes in the subtree rooted at id
// (sensors contribute 0). This is the satellite-processing part of the
// bottleneck weight β for the dual edge crossing the edge above id.
func (t *Tree) SubtreeSatTime(id NodeID) float64 { return t.subSat[id] }

// SubtreeSatellites returns the sorted distinct satellites that sensors in
// the subtree of id attach to. Length 0 can only happen for a sensor-free
// subtree, which Validate rejects, so for a valid tree the length is >= 1;
// length 1 identifies the node's correspondent satellite; length >= 2 marks a
// colour conflict. The returned slice is shared; callers must not modify it.
func (t *Tree) SubtreeSatellites(id NodeID) []SatelliteID { return t.subSats[id] }

// CorrespondentSatellite returns the unique satellite serving the subtree of
// id, or NoSatellite (and false) when the subtree spans zero or several
// satellites.
func (t *Tree) CorrespondentSatellite(id NodeID) (SatelliteID, bool) {
	if s := t.subSats[id]; len(s) == 1 {
		return s[0], true
	}
	return NoSatellite, false
}

// IsAncestorOrSelf reports whether a is b or one of b's ancestors. It runs in
// O(1) using the cached leaf ranges plus depth (a is an ancestor of b iff a's
// leaf interval contains b's and a is not deeper).
func (t *Tree) IsAncestorOrSelf(a, b NodeID) bool {
	return t.leafLo[a] <= t.leafLo[b] && t.leafHi[b] <= t.leafHi[a] && t.depth[a] <= t.depth[b]
}

// ProcessingCount returns the number of processing CRUs.
func (t *Tree) ProcessingCount() int {
	n := 0
	for i := range t.nodes {
		if t.nodes[i].Kind == Processing {
			n++
		}
	}
	return n
}

// SensorCount returns the number of sensors.
func (t *Tree) SensorCount() int { return len(t.leaves) }

// Edges returns all (parent, child) pairs in pre-order of the child. The
// slice is freshly allocated.
func (t *Tree) Edges() [][2]NodeID {
	edges := make([][2]NodeID, 0, t.Len()-1)
	for _, id := range t.preorder {
		if p := t.nodes[id].Parent; p != None {
			edges = append(edges, [2]NodeID{p, id})
		}
	}
	return edges
}

// TotalHostTime returns Σ h_i over all processing CRUs: the delay of the
// trivial everything-on-host assignment.
func (t *Tree) TotalHostTime() float64 {
	var sum float64
	for i := range t.nodes {
		sum += t.nodes[i].HostTime
	}
	return sum
}

// Clone returns a deep copy of the tree. The copy shares nothing with the
// original, so callers may mutate node profiles (times, costs) and re-run
// refreshCaches via Builder if structure changes are needed.
func (t *Tree) Clone() *Tree {
	cp := &Tree{
		nodes:      slices.Clone(t.nodes),
		root:       t.root,
		satellites: slices.Clone(t.satellites),
	}
	packChildren(cp.nodes, nil)
	cp.refreshCaches()
	return cp
}

// ScaleProfiles returns a clone with every host time multiplied by hostMul,
// every satellite time by satMul, and every communication cost by commMul.
// It is the workhorse of heterogeneity sweeps (experiment E12).
func (t *Tree) ScaleProfiles(hostMul, satMul, commMul float64) *Tree {
	cp := t.Clone()
	for i := range cp.nodes {
		cp.nodes[i].HostTime *= hostMul
		cp.nodes[i].SatTime *= satMul
		cp.nodes[i].UpComm *= commMul
	}
	cp.refreshCaches()
	return cp
}

// String renders a short human-readable summary.
func (t *Tree) String() string {
	return fmt.Sprintf("Tree{%d CRUs, %d sensors, %d satellites}",
		t.ProcessingCount(), t.SensorCount(), len(t.satellites))
}

// Render returns an indented multi-line drawing of the tree, one node per
// line, for logs and CLI output.
func (t *Tree) Render() string {
	var b strings.Builder
	var walk func(id NodeID, indent int)
	walk = func(id NodeID, indent int) {
		n := &t.nodes[id]
		b.WriteString(strings.Repeat("  ", indent))
		switch n.Kind {
		case SensorKind:
			fmt.Fprintf(&b, "%s [sensor @%s, c=%.3g]\n", n.Name, t.SatelliteName(n.Satellite), n.UpComm)
		default:
			fmt.Fprintf(&b, "%s [h=%.3g s=%.3g c=%.3g]\n", n.Name, n.HostTime, n.SatTime, n.UpComm)
		}
		for _, c := range n.Children {
			walk(c, indent+1)
		}
	}
	walk(t.root, 0)
	return b.String()
}

// refreshCaches recomputes every derived index. It assumes the structural
// invariants hold (call Validate first when in doubt). It allocates a fixed
// number of objects whatever the tree's size: the per-node indices share
// slabs, and the subtree-satellite sets share one array.
func (t *Tree) refreshCaches() {
	t.fpm.Store(nil)
	t.cpl.Store(nil)
	n := len(t.nodes)
	nleaves := 0
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			nleaves++
		}
	}
	ids := make([]NodeID, 2*n+nleaves)
	t.preorder = ids[0:0:n]
	t.postorder = ids[n : n : 2*n]
	t.leaves = ids[2*n : 2*n : 2*n+nleaves]
	ints := make([]int, 3*n)
	t.leafLo, t.leafHi, t.depth = ints[0:n:n], ints[n:2*n:2*n], ints[2*n:]
	t.subSat = make([]float64, n)
	t.subSats = make([][]SatelliteID, n)

	// Stackless DFS along the parent links. Until a processing node is
	// finished, its leafHi entry is the cursor of the next child to visit;
	// finishing overwrites it with the real value.
	visit := func(id NodeID) {
		t.preorder = append(t.preorder, id)
		if t.nodes[id].IsLeaf() {
			t.leafLo[id] = len(t.leaves)
			t.leafHi[id] = len(t.leaves)
			t.leaves = append(t.leaves, id)
		}
	}
	id := t.root
	visit(id)
	for {
		node := &t.nodes[id]
		if k := t.leafHi[id]; k < len(node.Children) {
			t.leafHi[id]++
			c := node.Children[k]
			t.depth[c] = t.depth[id] + 1
			visit(c)
			id = c
			continue
		}
		if k := len(node.Children); k > 0 {
			t.leafLo[id] = t.leafLo[node.Children[0]]
			t.leafHi[id] = t.leafHi[node.Children[k-1]]
		}
		t.postorder = append(t.postorder, id)
		if id == t.root {
			break
		}
		id = node.Parent
	}

	// A subtree's distinct satellites number at most its sensors and at
	// most the satellite count, so this bound sizes the shared array once.
	bound := 0
	for i := range t.nodes {
		bound += min(t.leafHi[i]-t.leafLo[i]+1, len(t.satellites))
	}
	sats := make([]SatelliteID, 0, bound)
	mark := make([]NodeID, len(t.satellites)) // mark[s] == id+1: s is already in id's set
	for _, id := range t.postorder {
		node := &t.nodes[id]
		t.subSat[id] = node.SatTime
		lo := len(sats)
		if node.Kind == SensorKind {
			sats = append(sats, node.Satellite)
		} else {
			for _, c := range node.Children {
				t.subSat[id] += t.subSat[c]
				for _, s := range t.subSats[c] {
					if mark[s] != id+1 {
						mark[s] = id + 1
						sats = append(sats, s)
					}
				}
			}
			slices.Sort(sats[lo:])
		}
		t.subSats[id] = sats[lo:len(sats):len(sats)]
	}
}

// packChildren copies every node's Children into one fresh shared array,
// keeping their order, mapping each child through remap (nil = identity)
// and dropping those it maps to None. Each list is capped at its length
// (see linkChildren).
func packChildren(nodes []Node, remap []NodeID) {
	total := 0
	for i := range nodes {
		total += len(nodes[i].Children)
	}
	kids := make([]NodeID, 0, total)
	for i := range nodes {
		n := &nodes[i]
		lo := len(kids)
		for _, c := range n.Children {
			if remap != nil {
				if c = remap[c]; c == None {
					continue
				}
			}
			kids = append(kids, c)
		}
		n.Children = nil
		if hi := len(kids); hi > lo {
			n.Children = kids[lo:hi:hi]
		}
	}
}

// Validation errors returned by Validate / Builder.Build.
var (
	ErrEmptyTree      = errors.New("model: tree has no nodes")
	ErrNoRoot         = errors.New("model: tree has no root")
	ErrMultipleRoots  = errors.New("model: tree has multiple roots")
	ErrCycle          = errors.New("model: parent links contain a cycle or unreachable node")
	ErrLeafNotSensor  = errors.New("model: leaf node is not a sensor (every leaf must capture raw context)")
	ErrSensorNotLeaf  = errors.New("model: sensor has children")
	ErrSensorNoSat    = errors.New("model: sensor is not attached to a satellite")
	ErrUnknownSat     = errors.New("model: sensor references an unknown satellite")
	ErrNegativeTime   = errors.New("model: negative or non-finite time/cost")
	ErrBadLink        = errors.New("model: inconsistent parent/child links")
	ErrRootIsSensor   = errors.New("model: root is a sensor")
	ErrSensorHasWork  = errors.New("model: sensor has non-zero processing time")
	ErrDuplicateChild = errors.New("model: duplicate child reference")
)

// Validate checks every structural invariant and returns the first violation
// found (wrapped with node context), or nil.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return ErrEmptyTree
	}
	roots := 0
	listedBy := make([]NodeID, len(t.nodes)) // listedBy[c] == p+1: p's Children hold c
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("%w: node %d has ID %d", ErrBadLink, i, n.ID)
		}
		if n.Parent == None {
			roots++
		} else if n.Parent < 0 || int(n.Parent) >= len(t.nodes) {
			return fmt.Errorf("%w: node %q has out-of-range parent %d", ErrBadLink, n.Name, n.Parent)
		}
		if !isFiniteNonNeg(n.HostTime) || !isFiniteNonNeg(n.SatTime) || !isFiniteNonNeg(n.UpComm) {
			return fmt.Errorf("%w: node %q (h=%v s=%v c=%v)", ErrNegativeTime, n.Name, n.HostTime, n.SatTime, n.UpComm)
		}
		for _, c := range n.Children {
			if c < 0 || int(c) >= len(t.nodes) {
				return fmt.Errorf("%w: node %q has out-of-range child %d", ErrBadLink, n.Name, c)
			}
			if listedBy[c] == n.ID+1 {
				return fmt.Errorf("%w: node %q lists child %d twice", ErrDuplicateChild, n.Name, c)
			}
			listedBy[c] = n.ID + 1
			if t.nodes[c].Parent != n.ID {
				return fmt.Errorf("%w: node %q lists child %q whose parent is %d", ErrBadLink, n.Name, t.nodes[c].Name, t.nodes[c].Parent)
			}
		}
		switch n.Kind {
		case SensorKind:
			if len(n.Children) > 0 {
				return fmt.Errorf("%w: %q", ErrSensorNotLeaf, n.Name)
			}
			if n.Satellite == NoSatellite {
				return fmt.Errorf("%w: %q", ErrSensorNoSat, n.Name)
			}
			if _, ok := t.SatelliteByID(n.Satellite); !ok {
				return fmt.Errorf("%w: %q -> satellite %d", ErrUnknownSat, n.Name, n.Satellite)
			}
			if n.HostTime != 0 || n.SatTime != 0 {
				return fmt.Errorf("%w: %q", ErrSensorHasWork, n.Name)
			}
		default:
			if len(n.Children) == 0 {
				return fmt.Errorf("%w: %q", ErrLeafNotSensor, n.Name)
			}
		}
	}
	if roots == 0 {
		return ErrNoRoot
	}
	if roots > 1 {
		return ErrMultipleRoots
	}
	if t.nodes[t.root].Parent != None {
		return fmt.Errorf("%w: recorded root %d has a parent", ErrBadLink, t.root)
	}
	if t.nodes[t.root].Kind == SensorKind {
		return ErrRootIsSensor
	}
	// Reachability: every node must be reached from the root exactly once.
	// Past the link checks each node sits in at most one Children list, so
	// the stack never holds more than every node once.
	visited := make([]bool, len(t.nodes))
	count := 0
	stack := make([]NodeID, 1, len(t.nodes))
	stack[0] = t.root
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[id] {
			return fmt.Errorf("%w: node %d reached twice", ErrCycle, id)
		}
		visited[id] = true
		count++
		stack = append(stack, t.nodes[id].Children...)
	}
	if count != len(t.nodes) {
		return fmt.Errorf("%w: %d of %d nodes reachable from root", ErrCycle, count, len(t.nodes))
	}
	return nil
}

func isFiniteNonNeg(x float64) bool {
	return x >= 0 && x == x && x <= 1e300 // rejects NaN, -x, ±Inf
}
