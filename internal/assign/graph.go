package assign

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/model"
)

// Edge is one dual edge of the assignment graph. CutChildren holds the
// single tree-edge child the dual edge crosses. The super-edges of the
// §5.4 expansion step are not Edges: they exist only inside a solve.
type Edge struct {
	ID          int
	From, To    int // faces, From < To
	Sigma, Beta float64
	Colour      model.SatelliteID
	CutChildren []model.NodeID
}

// Graph is the coloured doubly weighted assignment graph of one tree.
type Graph struct {
	tree  *model.Tree
	plan  *model.Compiled
	faces int // L+1: terminal S is face 0, terminal T is face L
	edges []Edge

	// treeSigma holds BuildPointer's own σ labels; it is nil on plan-built
	// graphs, which read plan.Sigma and place subtrees by span fills.
	treeSigma []float64
}

// ErrUnsolvable is returned when no S→T path exists, i.e. some root-to-
// sensor path consists solely of conflicting edges. With sensors as leaves
// this cannot happen (a sensor edge is never conflicting), so hitting it
// indicates a corrupted graph.
var ErrUnsolvable = errors.New("assign: assignment graph has no S→T path")

// Build constructs the assignment graph from the tree's compiled plan:
// one pass over the flat arrays — σ labels, subtree β aggregates, leaf
// spans and edge colours are all precomputed — instead of the recursive
// pointer walks BuildPointer performs. Edge order (pre-order of the
// crossed child) matches BuildPointer exactly, so the two graphs are
// interchangeable tie-break for tie-break.
func Build(t *model.Tree) *Graph {
	return BuildPlan(model.Compile(t))
}

// BuildPlan returns the assignment graph of a compiled plan: the base
// edges planWorkGraph fills, each given its crossed child as CutChildren.
// The graph is never mutated: SolveAdapted works on a pooled workGraph
// copy, and registry solves build no Graph at all.
func BuildPlan(c *model.Compiled) *Graph {
	w := planWorkGraph(c)
	defer w.release()
	g := &Graph{
		tree:  c.Tree(),
		plan:  c,
		faces: w.faces,
		edges: make([]Edge, len(w.edges)),
	}
	// One arena for every edge's single-element CutChildren slice.
	children := make([]model.NodeID, len(w.edges))
	for id, e := range w.edges {
		children[id] = e.child
		g.edges[id] = Edge{
			ID:          id,
			From:        e.from,
			To:          e.to,
			Sigma:       e.sigma,
			Beta:        e.beta,
			Colour:      e.colour,
			CutChildren: children[id : id+1 : id+1],
		}
	}
	return g
}

// BuildPointer is the original pointer-walking construction: Figure-8 σ
// labelling by recursive pre-order propagation, per-edge subtree lookups
// through the tree's node structs and stack-walk subtree placement. Edge
// colours and bands come from the compiled plan. It is retained as the
// reference implementation the plan-built graph is parity-tested against
// and as the baseline of BenchmarkCompiledVsPointer.
func BuildPointer(t *model.Tree) *Graph {
	c := model.Compile(t)
	g := &Graph{
		tree:      t,
		plan:      c,
		faces:     t.SensorCount() + 1,
		treeSigma: make([]float64, t.Len()),
	}

	// Figure-8 σ labelling: pre-order; the edge to a node's leftmost child
	// carries (label of the edge into the node) + h(node); other child
	// edges carry 0. The leftmost edge out of the root carries h(root).
	wIn := make([]float64, t.Len())
	for _, id := range t.Preorder() {
		n := t.Node(id)
		if n.Kind != model.Processing {
			continue
		}
		for k, c := range n.Children {
			label := 0.0
			if k == 0 {
				label = wIn[id] + n.HostTime
			}
			g.treeSigma[c] = label
			wIn[c] = label
		}
	}

	// One dual edge per non-conflicting tree edge.
	for _, id := range t.Preorder() {
		n := t.Node(id)
		if n.Parent == model.None {
			continue
		}
		colour := c.Colour[c.Pos[id]]
		if colour == model.NoSatellite {
			continue
		}
		lo, hi := t.LeafRange(id)
		g.addEdge(Edge{
			From:        lo,
			To:          hi + 1,
			Sigma:       g.treeSigma[id],
			Beta:        t.SubtreeSatTime(id) + n.UpComm,
			Colour:      colour,
			CutChildren: []model.NodeID{id},
		})
	}
	return g
}

func (g *Graph) addEdge(e Edge) {
	e.ID = len(g.edges)
	g.edges = append(g.edges, e)
}

// Tree returns the underlying tree.
func (g *Graph) Tree() *model.Tree { return g.tree }

// bandRange returns the colour's single leaf band; ok is false when the
// colour's sensors split into several bands (or none).
func bandRange(c *model.Compiled, sat model.SatelliteID) (lo, hi int, ok bool) {
	b := c.Bands(sat)
	if len(b) != 1 {
		return 0, 0, false
	}
	return int(b[0].Lo), int(b[0].Hi), true
}

// Faces returns the number of dual nodes (faces), terminals included.
func (g *Graph) Faces() int { return g.faces }

// Source returns the S terminal's face index (always 0).
func (g *Graph) Source() int { return 0 }

// Sink returns the T terminal's face index (always Faces()-1).
func (g *Graph) Sink() int { return g.faces - 1 }

// NumEdges returns the dual edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns dual edge id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns all dual edges. The slice is shared; do not modify.
func (g *Graph) Edges() []Edge { return g.edges }

// TreeSigma returns the Figure-8 σ label of the tree edge above child.
func (g *Graph) TreeSigma(child model.NodeID) float64 {
	if g.treeSigma != nil {
		return g.treeSigma[child]
	}
	return g.plan.Sigma[g.plan.Pos[child]]
}

// EdgeCrossing returns the dual edge crossing the tree edge above child, or
// false when that edge conflicts (has no dual edge).
func (g *Graph) EdgeCrossing(child model.NodeID) (Edge, bool) {
	for _, e := range g.edges {
		if e.CutChildren[0] == child {
			return e, true
		}
	}
	return Edge{}, false
}

// Measures computes the coloured path measures of a set of dual edges:
// S = Σ σ, per-colour β sums, and B = max over colours (§5.3's
// "maximum among the summations of the bottleneck weights per colour").
func (g *Graph) Measures(edgeIDs []int) (s float64, perColour map[model.SatelliteID]float64, b float64) {
	perColour = map[model.SatelliteID]float64{}
	for _, id := range edgeIDs {
		e := &g.edges[id]
		s += e.Sigma
		perColour[e.Colour] += e.Beta
	}
	for _, v := range perColour {
		if v > b {
			b = v
		}
	}
	return s, perColour, b
}

// Decode converts an S→T path (dual edge IDs) into the assignment it
// represents: the subtree under every crossed tree edge runs on the edge's
// colour satellite; everything above the cut runs on the host. The result
// is validated; an error indicates a path that is not a proper cut.
func (g *Graph) Decode(edgeIDs []int) (*model.Assignment, error) {
	asg := model.NewAssignment(g.tree)
	covered := 0
	for _, id := range edgeIDs {
		e := &g.edges[id]
		for _, child := range e.CutChildren {
			lo, hi := g.tree.LeafRange(child)
			covered += hi - lo + 1
			placeSubtree(g.plan, asg, child, model.OnSatellite(e.Colour), g.treeSigma != nil)
		}
	}
	if covered != g.tree.SensorCount() {
		return nil, fmt.Errorf("assign: path covers %d of %d leaves", covered, g.tree.SensorCount())
	}
	if err := asg.Validate(g.tree); err != nil {
		return nil, fmt.Errorf("assign: decoded path is infeasible: %w", err)
	}
	return asg, nil
}

// placeSubtree sinks the processing CRUs under root onto loc: a span fill
// over the compiled plan or, with walk set, BuildPointer's stack walk.
func placeSubtree(c *model.Compiled, asg *model.Assignment, root model.NodeID, loc model.Location, walk bool) {
	if !walk {
		p := c.Pos[root]
		for q := c.Start[p]; q <= p; q++ {
			if c.Proc[q] {
				asg.Set(c.Post[q], loc)
			}
		}
		return
	}
	t := c.Tree()
	stack := []model.NodeID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.Node(id)
		if n.Kind == model.Processing {
			asg.Set(id, loc)
		}
		stack = append(stack, n.Children...)
	}
}

// Report renders the graph in the style of Figure 6: the face count and one
// line per dual edge with its faces, crossed tree edge, colour and weights.
func (g *Graph) Report() string {
	t := g.tree
	var sb strings.Builder
	fmt.Fprintf(&sb, "assignment graph: %d faces (S=F0 ... T=F%d), %d coloured edges\n",
		g.faces, g.faces-1, len(g.edges))
	for _, e := range g.edges {
		names := make([]string, len(e.CutChildren))
		for i, c := range e.CutChildren {
			parent := t.Node(c).Parent
			names[i] = fmt.Sprintf("<%s,%s>", t.Node(parent).Name, t.Node(c).Name)
		}
		fmt.Fprintf(&sb, "  F%d -> F%-3d %-8s σ=%-8.4g β=%-8.4g crossing %s\n",
			e.From, e.To, t.SatelliteName(e.Colour), e.Sigma, e.Beta, strings.Join(names, "+"))
	}
	return sb.String()
}
