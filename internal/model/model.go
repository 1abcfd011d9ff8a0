package model

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/pool"
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

	// Traversal orders, derived by refreshCaches in one slab. Subtree
	// facts (leaf ranges, satellite loads, colours, spans) live only in
	// the compiled plan; the methods that report them read Compile(t).
	preorder  []NodeID // DFS pre-order, children visited left-to-right
	postorder []NodeID // DFS post-order; the plan's Post aliases it
	leaves    []NodeID // sensors in left-to-right (planar) order

	fpm atomic.Pointer[fpMemo]   // memoised Fingerprint state
	cpl atomic.Pointer[Compiled] // memoised Compile plan
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
	c := Compile(t)
	return int(c.LeafLo[c.Pos[id]])
}

// LeafRange returns the inclusive range [lo, hi] of leaf positions covered by
// the subtree rooted at id. For a sensor, lo == hi == its own position.
func (t *Tree) LeafRange(id NodeID) (lo, hi int) {
	c := Compile(t)
	p := c.Pos[id]
	return int(c.LeafLo[p]), int(c.LeafHi[p])
}

// Depth returns the number of edges between the root and id.
func (t *Tree) Depth(id NodeID) (d int) {
	for p := t.nodes[id].Parent; p != None; p = t.nodes[p].Parent {
		d++
	}
	return d
}

// SubtreeSatTime returns Σ s_k over all nodes in the subtree rooted at id
// (sensors contribute 0). This is the satellite-processing part of the
// bottleneck weight β for the dual edge crossing the edge above id.
func (t *Tree) SubtreeSatTime(id NodeID) float64 {
	c := Compile(t)
	return c.SubSat[c.Pos[id]]
}

// SubtreeSatellites returns the sorted distinct satellites that sensors in
// the subtree of id attach to. Length 0 can only happen for a sensor-free
// subtree, which Validate rejects, so for a valid tree the length is >= 1;
// length 1 identifies the node's correspondent satellite; length >= 2 marks a
// colour conflict. The set is computed on each call into a fresh slice.
func (t *Tree) SubtreeSatellites(id NodeID) []SatelliteID {
	c := Compile(t)
	var sats []SatelliteID
	for q, end := c.Span(c.Pos[id]); q < end; q++ {
		if s := c.Sensor[q]; s != NoSatellite && !slices.Contains(sats, s) {
			sats = append(sats, s)
		}
	}
	slices.Sort(sats)
	return sats
}

// CorrespondentSatellite returns the unique satellite serving the subtree of
// id, or NoSatellite (and false) when the subtree spans zero or several
// satellites.
func (t *Tree) CorrespondentSatellite(id NodeID) (SatelliteID, bool) {
	c := Compile(t)
	s := c.Colour[c.Pos[id]]
	return s, s != NoSatellite
}

// IsAncestorOrSelf reports whether a is b or one of b's ancestors: in
// post-order, b falls inside a's subtree span.
func (t *Tree) IsAncestorOrSelf(a, b NodeID) bool {
	c := Compile(t)
	pa, pb := c.Pos[a], c.Pos[b]
	return c.Start[pa] <= pb && pb <= pa
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
// original, so callers may mutate node profiles (times, costs); its plan
// and fingerprint are derived afresh on first use. Structure changes go
// through Edit.
func (t *Tree) Clone() *Tree {
	cp := &Tree{
		nodes:      slices.Clone(t.nodes),
		root:       t.root,
		satellites: slices.Clone(t.satellites),
	}
	packChildren(cp.nodes, nil)
	sc := builds.Get()
	cp.refreshCaches(sc)
	builds.Put(sc)
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

// refreshCaches derives the traversal orders of a new tree into one
// fresh slab. Past checkLinks each node sits in
// at most its parent's Children list, so the walk enters no node twice,
// and the count it returns falls short of Len() iff a cycle exists.
func (t *Tree) refreshCaches(sc *buildScratch) (reached int) {
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

	// Stackless DFS along the Children lists and back up the parent
	// links; next[id] is the cursor of id's next child to visit.
	next := pool.Slice(sc.ints, n)
	sc.ints = next
	id := t.root
	t.preorder = append(t.preorder, id)
	for {
		node := &t.nodes[id]
		if k := next[id]; k < len(node.Children) {
			next[id]++
			id = node.Children[k]
			t.preorder = append(t.preorder, id)
			if t.nodes[id].IsLeaf() {
				t.leaves = append(t.leaves, id)
			}
			continue
		}
		t.postorder = append(t.postorder, id)
		if id == t.root {
			return len(t.preorder)
		}
		id = node.Parent
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
	_, err := newTree(t.nodes, t.root, t.satellites) // t's own orders stay as built
	return err
}

// checkLinks checks every invariant but reachability: node IDs, link
// consistency, the single root, kinds, satellites and profiles.
func (t *Tree) checkLinks(sc *buildScratch) error {
	if len(t.nodes) == 0 {
		return ErrEmptyTree
	}
	roots := 0
	listedBy := pool.Slice(sc.ints, len(t.nodes)) // listedBy[c] == p+1: p's Children hold c
	sc.ints = listedBy
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
			if listedBy[c] == int(n.ID)+1 {
				return fmt.Errorf("%w: node %q lists child %d twice", ErrDuplicateChild, n.Name, c)
			}
			listedBy[c] = int(n.ID) + 1
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
	return nil
}

func isFiniteNonNeg(x float64) bool {
	return x >= 0 && x == x && x <= 1e300 // rejects NaN, -x, ±Inf
}
