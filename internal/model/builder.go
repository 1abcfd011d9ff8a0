package model

import (
	"fmt"

	"repro/internal/pool"
)

// Builder assembles a Tree incrementally. It is the only supported way to
// construct trees programmatically; Build validates all invariants and
// derives the traversal orders.
//
//	b := model.NewBuilder()
//	root := b.Root("fuse", 4, 0)           // h=4 (s irrelevant: root stays on host)
//	ecg := b.Child(root, "ecg", 2, 3, 1)   // h=2 s=3 c(ecg->fuse)=1
//	sat := b.Satellite("box-1")
//	b.Sensor(ecg, "ecg-probe", sat, 0.5)   // raw frame costs 0.5 to uplink
//	tree, err := b.Build()
type Builder struct {
	nodes      []Node
	satellites []Satellite
	rootSet    bool
	err        error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Satellite registers a satellite and returns its ID. Names should be unique
// for readable reports, but uniqueness is not required by the model.
func (b *Builder) Satellite(name string) SatelliteID {
	id := SatelliteID(len(b.satellites))
	b.satellites = append(b.satellites, Satellite{ID: id, Name: name})
	return id
}

// Root creates the root CRU. Calling Root twice records an error that Build
// reports.
func (b *Builder) Root(name string, hostTime, satTime float64) NodeID {
	if b.rootSet {
		b.fail(fmt.Errorf("model: Root called twice (%q)", name))
		return None
	}
	b.rootSet = true
	return b.addNode(Node{
		Name:      name,
		Kind:      Processing,
		Parent:    None,
		HostTime:  hostTime,
		SatTime:   satTime,
		Satellite: NoSatellite,
	})
}

// Child creates a processing CRU under parent. upComm is c_{child,parent}:
// the cost of shipping one processed frame from the child to the parent when
// the tree is cut between them.
func (b *Builder) Child(parent NodeID, name string, hostTime, satTime, upComm float64) NodeID {
	if !b.checkParent(parent, name) {
		return None
	}
	return b.addNode(Node{
		Name:      name,
		Kind:      Processing,
		Parent:    parent,
		HostTime:  hostTime,
		SatTime:   satTime,
		UpComm:    upComm,
		Satellite: NoSatellite,
	})
}

// Sensor creates a sensor leaf under parent, physically attached to sat.
// rawComm is c_{s,parent}: the cost of shipping one raw frame to the parent
// CRU when the parent runs on the host.
func (b *Builder) Sensor(parent NodeID, name string, sat SatelliteID, rawComm float64) NodeID {
	if !b.checkParent(parent, name) {
		return None
	}
	return b.addNode(Node{
		Name:      name,
		Kind:      SensorKind,
		Parent:    parent,
		UpComm:    rawComm,
		Satellite: sat,
	})
}

// Build validates and returns the tree. The Builder must not be reused after
// a successful Build (the node slice is handed to the Tree).
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.rootSet {
		return nil, ErrNoRoot
	}
	linkChildren(b.nodes)
	return newTree(b.nodes, 0, b.satellites)
}

// newTree validates nodes as a tree rooted at root and derives its
// traversal orders, whose walk is also the reachability check.
func newTree(nodes []Node, root NodeID, sats []Satellite) (*Tree, error) {
	sc := builds.Get()
	defer builds.Put(sc)
	t := &Tree{nodes: nodes, root: root, satellites: sats}
	if err := t.checkLinks(sc); err != nil {
		return nil, err
	}
	if reached := t.refreshCaches(sc); reached != len(nodes) {
		return nil, fmt.Errorf("%w: %d of %d nodes reachable from root", ErrCycle, reached, len(nodes))
	}
	return t, nil
}

// buildScratch is the pooled scratch of tree construction: one int
// buffer that linkChildren, checkLinks and refreshCaches resize in turn,
// and FromSpec's name indexes, cleared before the scratch goes back.
type buildScratch struct {
	ints  []int
	sats  map[string]SatelliteID
	names map[string]NodeID
}

var builds = pool.NewArena(func() *buildScratch {
	return &buildScratch{sats: map[string]SatelliteID{}, names: map[string]NodeID{}}
})

// MustBuild is Build for workloads that are known-valid by construction
// (e.g. the canonical paper tree); it panics on error.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// linkChildren fills every node's Children from the Parent links, in ID
// order (the order the Builder created them), by a counting sort into one
// shared array. Each list is capped at its length, so an append to one
// (an Editor's Attach) copies it instead of writing over the next list.
func linkChildren(nodes []Node) {
	sc := builds.Get()
	defer builds.Put(sc)
	start := pool.Slice(sc.ints, len(nodes)+1) // start[p]: first slot of p's list
	sc.ints = start
	for i := range nodes {
		if p := nodes[i].Parent; p != None {
			start[p+1]++
		}
	}
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	kids := make([]NodeID, start[len(nodes)])
	for i := range nodes {
		if p := nodes[i].Parent; p != None {
			kids[start[p]] = NodeID(i)
			start[p]++
		}
	}
	// Filling advanced start[p] to the end of p's list, which is where
	// p+1's list begins.
	lo := 0
	for p := range nodes {
		if hi := start[p]; hi > lo {
			nodes[p].Children = kids[lo:hi:hi]
			lo = hi
		}
	}
}

func (b *Builder) addNode(n Node) NodeID {
	n.ID = NodeID(len(b.nodes))
	b.nodes = append(b.nodes, n)
	return n.ID
}

func (b *Builder) checkParent(parent NodeID, name string) bool {
	if parent == None {
		// Propagated failure from an earlier builder call: keep the first error.
		if b.err == nil {
			b.fail(fmt.Errorf("model: node %q attached to failed parent", name))
		}
		return false
	}
	if parent < 0 || int(parent) >= len(b.nodes) {
		b.fail(fmt.Errorf("model: node %q attached to unknown parent %d", name, parent))
		return false
	}
	if b.nodes[parent].Kind == SensorKind {
		b.fail(fmt.Errorf("model: node %q attached to sensor %q", name, b.nodes[parent].Name))
		return false
	}
	return true
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}
