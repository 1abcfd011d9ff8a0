package model

import "slices"

// LeafSpan is a maximal run of consecutive leaf (sensor) positions in the
// planar order, inclusive on both ends: one band of a satellite's sensors.
type LeafSpan struct{ Lo, Hi int32 }

// Compiled is an immutable, cache-friendly compilation of one Tree
// revision: structure-of-arrays node fields, a post-order permutation
// with per-node subtree spans, per-satellite sensor groupings, and
// precomputed subtree aggregates with the colouring's monochromatic
// results folded in. Every hot solver loop — flat delay evaluation, DWG
// construction, branch-and-bound bounds, heuristic moves — reads these
// arrays instead of chasing Node pointers and re-deriving traversals.
//
// Unless noted otherwise, per-node arrays are indexed by post-order
// position. Post-order makes every subtree a contiguous span: the subtree
// rooted at position p occupies [Start[p], p+1), so whole-subtree
// operations (sink to a satellite, lift to the host, aggregate sums) are
// plain slice loops. Pre lists the positions in DFS pre-order for passes
// that must match the pointer walks' iteration — and therefore their
// floating-point summation — order exactly; the aggregates are likewise
// accumulated in child order so they are bit-identical to the pointer
// walks' sums, which is what lets the parity tests demand exact equality.
//
// The plan is the tree's only index of subtree facts: Tree.LeafRange,
// SubtreeSatTime, CorrespondentSatellite and IsAncestorOrSelf read it.
// A Compiled is never mutated after construction and is memoised on its
// Tree by Compile. Profile-only edits (Editor.Build's fast path) hand the
// new revision a patched copy that shares every structural array and
// copies only the float arrays, recomputing just the dirtied spine.
type Compiled struct {
	tree   *Tree
	floats []float64 // the slab behind the eight float arrays

	// Permutations between NodeIDs and post-order positions.
	Post []NodeID // position -> node ID
	Pos  []int32  // node ID -> position
	Pre  []int32  // positions in DFS pre-order

	// Structure: parents, CSR children, subtree spans.
	Parent   []int32 // parent's position; -1 for the root
	ChildIdx []int32 // CSR offsets into Child, len n+1
	Child    []int32 // children positions, left-to-right
	Start    []int32 // subtree of p spans positions [Start[p], p+1)
	RootPos  int32

	// Node profiles (structure-of-arrays).
	HostTime []float64
	SatTime  []float64
	UpComm   []float64
	Proc     []bool        // Kind == Processing
	Sensor   []SatelliteID // sensor's satellite; NoSatellite for CRUs

	// Subtree aggregates, accumulated in child order.
	SubSat  []float64 // Σ s over the subtree
	SubHost []float64 // Σ h over the subtree
	SubComm []float64 // Σ c over the subtree (own uplink included)
	Forced  []float64 // Σ h over the subtree's must-host CRUs

	// Colouring results folded in.
	Colour   []SatelliteID // monochromatic colour of the subtree; NoSatellite = conflict
	MustHost []bool        // processing CRU pinned to the host (root or multi-colour)

	// Figure-8 σ label of the tree edge above each node (0 for the root).
	Sigma []float64

	// Sensor groupings.
	LeafLo, LeafHi []int32      // leaf-position interval covered by the subtree
	Leaves         []int32      // planar leaf order -> position
	SatSensors     [][]int32    // per satellite: its sensors' positions, planar order
	SatBands       [][]LeafSpan // per satellite: maximal runs of its leaves
	NumSats        int
}

// Compile returns the compiled plan of t, memoised on the tree: the first
// call per revision builds it, later calls (and every solver dispatched
// through core on the same revision) share it. Profile-edited revisions
// inherit a patched plan from their base, so a mutation stream never
// recompiles structure it did not touch.
func Compile(t *Tree) *Compiled {
	if c := t.cpl.Load(); c != nil {
		return c
	}
	c := compile(t)
	t.cpl.Store(c)
	return c
}

// Tree returns the tree this plan was compiled from.
func (c *Compiled) Tree() *Tree { return c.tree }

// Len returns the number of nodes.
func (c *Compiled) Len() int { return len(c.Post) }

// Children returns the positions of p's children, left-to-right. The
// slice aliases the CSR arena; callers must not modify it.
func (c *Compiled) Children(p int32) []int32 {
	return c.Child[c.ChildIdx[p]:c.ChildIdx[p+1]]
}

// Span returns the position span [start, end) of the subtree rooted at p.
func (c *Compiled) Span(p int32) (start, end int32) { return c.Start[p], p + 1 }

// Bands returns satellite sat's maximal leaf runs in left-to-right order.
func (c *Compiled) Bands(sat SatelliteID) []LeafSpan {
	if sat < 0 || int(sat) >= len(c.SatBands) {
		return nil
	}
	return c.SatBands[sat]
}

// Contiguous reports whether satellite sat's sensors occupy one
// contiguous run of leaves — the precondition of the §5.4 expansion step.
func (c *Compiled) Contiguous(sat SatelliteID) bool { return len(c.Bands(sat)) <= 1 }

// BaseLocations fills loc (position-indexed, resized by the caller to
// Len()) with the everything-on-host assignment: CRUs on the host,
// sensors pinned to their satellites.
func (c *Compiled) BaseLocations(loc []Location) {
	for p := range loc {
		if s := c.Sensor[p]; s != NoSatellite {
			loc[p] = OnSatellite(s)
		} else {
			loc[p] = Host
		}
	}
}

// TopmostLocations fills loc with the maximal distribution: exactly the
// must-host closure stays on the host and every monochromatic region
// hanging off it sinks to its satellite. This minimal-host-set cut is
// where the §5.4 adapted algorithm starts and the "maximal distribution"
// baseline.
func (c *Compiled) TopmostLocations(loc []Location) {
	c.BaseLocations(loc)
	for p := int32(0); p < int32(len(loc)); p++ {
		if !c.Proc[p] || c.MustHost[p] {
			continue
		}
		if par := c.Parent[p]; par >= 0 && c.MustHost[par] {
			c.FillSpan(loc, p, OnSatellite(c.Colour[p]))
		}
	}
}

// TopmostAssignment returns the TopmostLocations cut as a NodeID-indexed
// assignment of the plan's tree.
func (c *Compiled) TopmostAssignment() *Assignment {
	loc := make([]Location, c.Len())
	c.TopmostLocations(loc)
	a := &Assignment{Loc: make([]Location, c.Len())}
	c.StoreAssignment(a, loc)
	return a
}

// FillSpan places every processing CRU in the subtree at p onto l —
// the span form of the solvers' placeSubtree walks. Sensors keep their
// pinned location.
func (c *Compiled) FillSpan(loc []Location, p int32, l Location) {
	for q := c.Start[p]; q <= p; q++ {
		if c.Proc[q] {
			loc[q] = l
		}
	}
}

// LoadLocations copies a NodeID-indexed assignment into the
// position-indexed vector loc.
func (c *Compiled) LoadLocations(loc []Location, a *Assignment) {
	for p := range loc {
		loc[p] = a.Loc[c.Post[p]]
	}
}

// StoreAssignment copies the position-indexed vector loc into the
// NodeID-indexed assignment.
func (c *Compiled) StoreAssignment(a *Assignment, loc []Location) {
	for p := range loc {
		a.Loc[c.Post[p]] = loc[p]
	}
}

// compile builds the plan from the tree's nodes and traversal orders.
// The tree must be valid (Builder/Editor output); compile is reachable
// only through Compile on such trees. Post aliases the tree's post-order,
// and the per-node arrays are cut from one slab per element type.
func compile(t *Tree) *Compiled {
	n, nl, ns := len(t.nodes), len(t.leaves), len(t.satellites)
	i32 := make([]int32, 8*n+2*nl+2*ns)
	flags := make([]bool, 2*n)
	sats := make([]SatelliteID, 2*n)
	c := &Compiled{
		tree:     t,
		Post:     t.postorder,
		Pos:      carve(&i32, n),
		Pre:      carve(&i32, n),
		Parent:   carve(&i32, n),
		ChildIdx: carve(&i32, n+1),
		Child:    carve(&i32, n-1), // a tree has one edge fewer than nodes
		Start:    carve(&i32, n),
		LeafLo:   carve(&i32, n),
		LeafHi:   carve(&i32, n),
		Leaves:   carve(&i32, nl),
		Proc:     carve(&flags, n),
		MustHost: carve(&flags, n),
		Sensor:   carve(&sats, n),
		Colour:   carve(&sats, n),
		NumSats:  ns,
	}
	c.setFloats(make([]float64, 8*n))
	for p, id := range c.Post {
		c.Pos[id] = int32(p)
	}
	for i, id := range t.preorder {
		c.Pre[i] = c.Pos[id]
	}
	c.RootPos = c.Pos[t.root]
	for i, leaf := range t.leaves {
		p := c.Pos[leaf]
		c.Leaves[i] = p
		c.LeafLo[p], c.LeafHi[p] = int32(i), int32(i)
	}

	// Structure and profiles (CSR children in sibling order).
	k := int32(0)
	for p := 0; p < n; p++ {
		nd := &t.nodes[c.Post[p]]
		c.ChildIdx[p] = k
		for _, ch := range nd.Children {
			c.Child[k] = c.Pos[ch]
			k++
		}
		if nd.Parent == None {
			c.Parent[p] = -1
		} else {
			c.Parent[p] = c.Pos[nd.Parent]
		}
		c.HostTime[p] = nd.HostTime
		c.SatTime[p] = nd.SatTime
		c.UpComm[p] = nd.UpComm
		c.Proc[p] = nd.Kind == Processing
		if nd.Kind == SensorKind {
			c.Sensor[p] = nd.Satellite
		} else {
			c.Sensor[p] = NoSatellite
		}
	}
	c.ChildIdx[n] = k

	// Subtree spans, leaf ranges, aggregates and colours in one
	// post-order pass (children have smaller positions than their
	// parents).
	for p := int32(0); p < int32(n); p++ {
		kids := c.Children(p)
		if len(kids) == 0 {
			c.Start[p] = p
		} else {
			c.Start[p] = c.Start[kids[0]]
			c.LeafLo[p] = c.LeafLo[kids[0]]
			c.LeafHi[p] = c.LeafHi[kids[len(kids)-1]]
		}
		c.SubSat[p] = c.SatTime[p]
		c.SubHost[p] = c.HostTime[p]
		c.SubComm[p] = c.UpComm[p]
		mono := true
		col := c.Sensor[p] // NoSatellite for CRUs, their own satellite for sensors
		for _, ch := range kids {
			c.SubSat[p] += c.SubSat[ch]
			c.SubHost[p] += c.SubHost[ch]
			c.SubComm[p] += c.SubComm[ch]
			cc := c.Colour[ch]
			if cc == NoSatellite {
				mono = false
				continue
			}
			if col == NoSatellite {
				col = cc
			} else if col != cc {
				mono = false
			}
		}
		if !mono {
			col = NoSatellite
		}
		c.Colour[p] = col
		c.MustHost[p] = c.Proc[p] && (col == NoSatellite || p == c.RootPos)
	}
	// Forced needs MustHost of the whole subtree, hence a second pass.
	for p := int32(0); p < int32(n); p++ {
		if c.MustHost[p] {
			c.Forced[p] = c.HostTime[p]
		}
		for _, ch := range c.Children(p) {
			c.Forced[p] += c.Forced[ch]
		}
	}

	c.refreshSigma()

	// Sensor groupings: a counting sort of the planar leaf order by
	// satellite, and each satellite's maximal leaf runs. The last 2*ns
	// entries of the int32 slab count each satellite's sensors and runs.
	sensors, count, nbands := carve(&i32, nl), i32, 0
	for i, p := range c.Leaves {
		sat := c.Sensor[p]
		count[sat]++
		if i == 0 || c.Sensor[c.Leaves[i-1]] != sat {
			count[ns+int(sat)]++
			nbands++
		}
	}
	bands := make([]LeafSpan, nbands)
	c.SatSensors = make([][]int32, ns)
	c.SatBands = make([][]LeafSpan, ns)
	for s := range ns {
		c.SatSensors[s] = carve(&sensors, int(count[s]))[:0]
		c.SatBands[s] = carve(&bands, int(count[ns+s]))[:0]
	}
	for i, p := range c.Leaves {
		sat := c.Sensor[p]
		c.SatSensors[sat] = append(c.SatSensors[sat], p)
		if b := c.SatBands[sat]; len(b) > 0 && b[len(b)-1].Hi == int32(i)-1 {
			b[len(b)-1].Hi = int32(i)
		} else {
			c.SatBands[sat] = append(b, LeafSpan{Lo: int32(i), Hi: int32(i)})
		}
	}
	return c
}

// carve cuts the first n elements off *slab, capped at their length.
func carve[E any](slab *[]E, n int) []E {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// setFloats points the plan's eight float arrays at consecutive n-element
// runs of f64, which holds 8*Len() elements.
func (c *Compiled) setFloats(f64 []float64) {
	c.floats = f64
	n := len(f64) / 8
	for _, a := range []*[]float64{&c.HostTime, &c.SatTime, &c.UpComm, &c.SubSat, &c.SubHost, &c.SubComm, &c.Forced, &c.Sigma} {
		*a = carve(&f64, n)
	}
}

// refreshSigma recomputes the Figure-8 σ labels from the host times: in
// pre-order, the edge to a node's leftmost child carries (label of the
// edge into the node) + h(node); other child edges carry 0.
func (c *Compiled) refreshSigma() {
	for i := range c.Sigma {
		c.Sigma[i] = 0
	}
	for _, p := range c.Pre {
		if !c.Proc[p] {
			continue
		}
		for k, ch := range c.Children(p) {
			if k == 0 {
				c.Sigma[ch] = c.Sigma[p] + c.HostTime[p]
			} else {
				c.Sigma[ch] = 0
			}
		}
	}
}

// adoptCompiledPlan hands a profile-edited revision t a patched copy of
// base's plan: every structural array (permutations, CSR children, spans,
// colours, sensor groupings) is shared, the float arrays are copied as
// one slab, and only the dirtied spine is recomputed — each changed
// node's value is patched in place and its subtree aggregates are
// re-derived bottom-up along the root path exactly as a full compile
// would, so the patched arrays are bit-identical to a fresh compilation.
// σ labels depend on every ancestor host time along leftmost chains, so
// a host-time edit re-runs the O(n) flat σ pass (no tree walk).
// Shape changes never reach this path; structural edits drop the plan and
// recompile lazily.
func (t *Tree) adoptCompiledPlan(base *Tree, dirty []NodeID) {
	bc := base.cpl.Load()
	if bc == nil || bc.Len() != t.Len() {
		return
	}
	c := *bc // shallow copy: shares every structural array
	c.tree = t
	c.setFloats(slices.Clone(bc.floats))

	hostDirty := false
	spine := make([]int32, 0, 2*len(dirty))
	for _, id := range dirty {
		p := c.Pos[id]
		nd := &t.nodes[id]
		changed := false
		if nd.HostTime != c.HostTime[p] {
			c.HostTime[p] = nd.HostTime
			hostDirty = true
			changed = true
		}
		if nd.SatTime != c.SatTime[p] {
			c.SatTime[p] = nd.SatTime
			changed = true
		}
		if nd.UpComm != c.UpComm[p] {
			c.UpComm[p] = nd.UpComm
			changed = true
		}
		if changed {
			for q := p; q >= 0; q = c.Parent[q] {
				spine = append(spine, q)
			}
		}
	}
	if len(spine) > 0 {
		// Bottom-up (ascending position = children first), deduplicated:
		// re-derive each spine node's aggregates from its children in the
		// same accumulation order as compile, so values stay bit-exact.
		slices.Sort(spine)
		prev := int32(-1)
		for _, p := range spine {
			if p == prev {
				continue
			}
			prev = p
			c.SubSat[p] = c.SatTime[p]
			c.SubHost[p] = c.HostTime[p]
			c.SubComm[p] = c.UpComm[p]
			if c.MustHost[p] {
				c.Forced[p] = c.HostTime[p]
			} else {
				c.Forced[p] = 0
			}
			for _, ch := range c.Children(p) {
				c.SubSat[p] += c.SubSat[ch]
				c.SubHost[p] += c.SubHost[ch]
				c.SubComm[p] += c.SubComm[ch]
				c.Forced[p] += c.Forced[ch]
			}
		}
	}
	if hostDirty {
		c.refreshSigma()
	}
	t.cpl.Store(&c)
}
