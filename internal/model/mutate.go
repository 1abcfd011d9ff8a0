package model

import (
	"fmt"
	"slices"
)

// Editor stages edits against a base Tree and produces a new validated
// Tree, leaving the base untouched (trees stay immutable; an edit is a
// copy). It is the model-layer substrate of the incremental re-solve
// engine: profile edits (execution times, communication costs) keep the
// base's node numbering and traversal orders and transfer its
// fingerprint memo and plan with only the root-to-edit paths
// invalidated, so re-fingerprinting the result is O(depth); structural
// edits (attach, detach, sensor re-homing) rebuild and re-validate from
// scratch.
//
// Like Builder, an Editor is single-use and error-sticky: the first
// failure is recorded, later calls no-op, and Build reports it. An Editor
// is not safe for concurrent use.
type Editor struct {
	base       *Tree
	nodes      []Node // working copy; IDs equal the base's until compaction
	satellites []Satellite
	removed    []bool   // marked by Detach; compacted away in Build
	dirty      []NodeID // profile-edited nodes (fingerprint invalidation)
	structural bool     // any edit that changes shape or the satellite partition
	err        error
}

// Edit returns an Editor staging changes against t. The working nodes
// share the base's Children lists: every Tree caps each list at its
// length, so an Attach or Detach copies the list it changes and the base
// is never written.
func (t *Tree) Edit() *Editor {
	return &Editor{
		base:       t,
		nodes:      slices.Clone(t.nodes),
		satellites: slices.Clone(t.satellites),
		removed:    make([]bool, len(t.nodes)),
	}
}

// Err returns the first recorded failure, or nil.
func (e *Editor) Err() error { return e.err }

// NodeByName returns the first live (not detached) node with the given
// name in the working set.
func (e *Editor) NodeByName(name string) (NodeID, bool) {
	for i := range e.nodes {
		if !e.removed[i] && e.nodes[i].Name == name {
			return e.nodes[i].ID, true
		}
	}
	return None, false
}

// NodeInfo returns a copy of the working node with the given ID. The
// Children slice is shared; callers must not modify it.
func (e *Editor) NodeInfo(id NodeID) (Node, bool) {
	if !e.live(id) {
		return Node{}, false
	}
	return e.nodes[id], true
}

// SetTimes updates a processing CRU's execution profile (h_i, s_i).
func (e *Editor) SetTimes(id NodeID, hostTime, satTime float64) {
	if e.err != nil || !e.check(id, "SetTimes") {
		return
	}
	n := &e.nodes[id]
	if n.Kind != Processing {
		e.fail(fmt.Errorf("model: SetTimes on sensor %q (sensors perform no processing)", n.Name))
		return
	}
	if n.HostTime == hostTime && n.SatTime == satTime {
		return
	}
	n.HostTime, n.SatTime = hostTime, satTime
	e.touch(id)
}

// SetUpComm updates the cost of shipping one frame from id to its parent
// (c_{i,parent}, or c_{s,parent} for sensors).
func (e *Editor) SetUpComm(id NodeID, c float64) {
	if e.err != nil || !e.check(id, "SetUpComm") {
		return
	}
	n := &e.nodes[id]
	if n.Parent == None {
		e.fail(fmt.Errorf("model: SetUpComm on root %q (the root has no uplink)", n.Name))
		return
	}
	if n.UpComm == c {
		return
	}
	n.UpComm = c
	e.touch(id)
}

// EnsureSatellite returns the ID of the first satellite with the given
// name, registering a new one when none exists.
func (e *Editor) EnsureSatellite(name string) SatelliteID {
	for i := range e.satellites {
		if e.satellites[i].Name == name {
			return e.satellites[i].ID
		}
	}
	id := SatelliteID(len(e.satellites))
	e.satellites = append(e.satellites, Satellite{ID: id, Name: name})
	e.structural = true // the satellite set is part of the instance identity
	return id
}

// SetSensorSatellite re-homes a sensor onto another satellite. This is a
// structural edit: it changes the satellite partition, so Build re-derives
// every cache.
func (e *Editor) SetSensorSatellite(id NodeID, sat SatelliteID) {
	if e.err != nil || !e.check(id, "SetSensorSatellite") {
		return
	}
	n := &e.nodes[id]
	if n.Kind != SensorKind {
		e.fail(fmt.Errorf("model: SetSensorSatellite on processing CRU %q", n.Name))
		return
	}
	if sat < 0 || int(sat) >= len(e.satellites) {
		e.fail(fmt.Errorf("model: SetSensorSatellite(%q) references unknown satellite %d", n.Name, sat))
		return
	}
	if n.Satellite == sat {
		return
	}
	n.Satellite = sat
	e.structural = true
}

// Detach removes the subtree rooted at id. Detaching the root is an
// error; detaching the last child of a processing CRU leaves a leaf that
// is not a sensor, which Build rejects with ErrLeafNotSensor. Satellites
// that lose their last sensor stay registered (the satellite set is part
// of the instance identity and is never garbage-collected).
func (e *Editor) Detach(id NodeID) {
	if e.err != nil || !e.check(id, "Detach") {
		return
	}
	if e.nodes[id].Parent == None {
		e.fail(fmt.Errorf("model: Detach(%q) would remove the root", e.nodes[id].Name))
		return
	}
	e.structural = true
	stack := []NodeID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e.removed[cur] = true
		stack = append(stack, e.nodes[cur].Children...)
	}
	// Unlink from the parent; compaction drops the nodes themselves.
	p := &e.nodes[e.nodes[id].Parent]
	for i, c := range p.Children {
		if c == id {
			p.Children = append(p.Children[:i:i], p.Children[i+1:]...)
			break
		}
	}
}

// Attach grafts the Spec fragment under parent as its new rightmost
// subtree. Fragment rows with an empty Parent attach directly to parent;
// other rows reference earlier rows of the same fragment by name, exactly
// as in FromSpec. Fragment satellites are resolved by name against the
// existing set (new names register new satellites), and fragment node
// names must not collide with live node names — mutation streams address
// nodes by name, so names stay unique handles.
func (e *Editor) Attach(parent NodeID, frag *Spec) {
	if e.err != nil || !e.check(parent, "Attach") {
		return
	}
	if frag == nil || (len(frag.CRUs) == 0 && len(frag.Sensors) == 0) {
		e.fail(fmt.Errorf("model: Attach with an empty fragment"))
		return
	}
	if e.nodes[parent].Kind == SensorKind {
		e.fail(fmt.Errorf("model: Attach under sensor %q", e.nodes[parent].Name))
		return
	}
	e.structural = true
	for _, name := range frag.Satellites {
		e.EnsureSatellite(name)
	}
	ids := map[string]NodeID{}
	resolve := func(kind, name, ref string) (NodeID, bool) {
		if ref == "" {
			return parent, true
		}
		if id, ok := ids[ref]; ok {
			return id, true
		}
		e.fail(fmt.Errorf("model: fragment %s %q references parent %q before it is defined", kind, name, ref))
		return None, false
	}
	add := func(n Node, name string) (NodeID, bool) {
		if name == "" {
			e.fail(fmt.Errorf("model: fragment node has no name"))
			return None, false
		}
		if _, dup := e.NodeByName(name); dup {
			e.fail(fmt.Errorf("model: fragment node %q collides with an existing node", name))
			return None, false
		}
		if _, dup := ids[name]; dup {
			e.fail(fmt.Errorf("model: fragment defines node %q twice", name))
			return None, false
		}
		n.Name = name
		n.ID = NodeID(len(e.nodes))
		e.nodes = append(e.nodes, n)
		e.removed = append(e.removed, false)
		e.nodes[n.Parent].Children = append(e.nodes[n.Parent].Children, n.ID)
		ids[name] = n.ID
		return n.ID, true
	}
	for _, c := range frag.CRUs {
		p, ok := resolve("cru", c.Name, c.Parent)
		if !ok {
			return
		}
		if _, ok := add(Node{
			Kind: Processing, Parent: p,
			HostTime: c.HostTime, SatTime: c.SatTime, UpComm: c.Comm,
			Satellite: NoSatellite,
		}, c.Name); !ok {
			return
		}
	}
	for _, s := range frag.Sensors {
		p, ok := resolve("sensor", s.Name, s.Parent)
		if !ok {
			return
		}
		if _, ok := add(Node{
			Kind: SensorKind, Parent: p,
			UpComm:    s.Comm,
			Satellite: e.EnsureSatellite(s.Satellite),
		}, s.Name); !ok {
			return
		}
	}
}

// Build validates the staged edits and returns the resulting tree. The
// base tree is never modified. Profile-only edits take the fast path: the
// result shares the base's traversal orders (immutable by contract),
// inherits the base's fingerprint memo with the root-to-edit paths
// invalidated, and, when the base was compiled, a plan patched along
// those paths. Structural edits compact the node set, re-validate every
// invariant and re-derive the orders; the plan is compiled on first use.
func (e *Editor) Build() (*Tree, error) {
	if e.err != nil {
		return nil, e.err
	}
	if !e.structural {
		return e.buildFast()
	}
	return e.buildStructural()
}

func (e *Editor) buildFast() (*Tree, error) {
	for _, id := range e.dirty {
		n := &e.nodes[id]
		if !isFiniteNonNeg(n.HostTime) || !isFiniteNonNeg(n.SatTime) || !isFiniteNonNeg(n.UpComm) {
			return nil, fmt.Errorf("%w: node %q (h=%v s=%v c=%v)", ErrNegativeTime, n.Name, n.HostTime, n.SatTime, n.UpComm)
		}
	}
	b := e.base
	// Shape is untouched: the traversal orders carry over (immutable by
	// the Tree contract), and the plan is patched along the edited spines.
	t := &Tree{nodes: e.nodes, root: b.root, satellites: e.satellites,
		preorder: b.preorder, postorder: b.postorder, leaves: b.leaves}
	t.adoptFingerprintMemo(b, e.dirty)
	t.adoptCompiledPlan(b, e.dirty)
	return t, nil
}

func (e *Editor) buildStructural() (*Tree, error) {
	remap := make([]NodeID, len(e.nodes))
	nodes := make([]Node, 0, len(e.nodes))
	for i := range e.nodes {
		if e.removed[i] {
			remap[i] = None
			continue
		}
		remap[i] = NodeID(len(nodes))
		nodes = append(nodes, e.nodes[i])
	}
	if len(nodes) == 0 {
		return nil, ErrEmptyTree
	}
	for i := range nodes {
		n := &nodes[i]
		n.ID = NodeID(i)
		if n.Parent != None {
			n.Parent = remap[n.Parent]
		}
	}
	packChildren(nodes, remap)
	root := remap[e.base.root]
	if root == None {
		return nil, ErrNoRoot
	}
	return newTree(nodes, root, e.satellites)
}

func (e *Editor) live(id NodeID) bool {
	return id >= 0 && int(id) < len(e.nodes) && !e.removed[id]
}

func (e *Editor) check(id NodeID, op string) bool {
	if !e.live(id) {
		e.fail(fmt.Errorf("model: %s on unknown or detached node %d", op, id))
		return false
	}
	return true
}

func (e *Editor) touch(id NodeID) {
	e.dirty = append(e.dirty, id)
}

func (e *Editor) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}
