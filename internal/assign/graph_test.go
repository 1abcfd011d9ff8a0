package assign

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dwg"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/workload"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// encode validates asg and maps it to its S→T path on g through a work
// graph copy.
func encode(g *Graph, asg *model.Assignment) ([]int, error) {
	if err := asg.Validate(g.Tree()); err != nil {
		return nil, err
	}
	w := newWorkGraph(g)
	defer w.release()
	ids, err := w.encode(asg)
	return slices.Clone(ids), err
}

// refEncode is the reference encoding: the dual edge crossing each of the
// assignment's cut edges, ordered along the path.
func refEncode(g *Graph, asg *model.Assignment) ([]int, error) {
	var ids []int
	for _, pair := range asg.CutEdges(g.Tree()) {
		e, ok := g.EdgeCrossing(pair[1])
		if !ok {
			return nil, fmt.Errorf("cut edge into %d has no dual edge", pair[1])
		}
		ids = append(ids, e.ID)
	}
	slices.SortFunc(ids, func(a, b int) int { return cmp.Compare(g.Edge(a).From, g.Edge(b).From) })
	return ids, nil
}

// TestFigure6GraphShape is experiment E3: the coloured assignment graph of
// the paper tree has 8 faces (7 sensors + 1) and 17 coloured dual edges
// (19 tree edges minus the 2 conflicting ones).
func TestFigure6GraphShape(t *testing.T) {
	g := Build(workload.PaperTree())
	if g.Faces() != 8 {
		t.Errorf("faces = %d, want 8", g.Faces())
	}
	if g.NumEdges() != 17 {
		t.Errorf("dual edges = %d, want 17", g.NumEdges())
	}
	if g.Source() != 0 || g.Sink() != 7 {
		t.Errorf("terminals = %d,%d, want 0,7", g.Source(), g.Sink())
	}
	// No dual edge may cross a conflicting tree edge.
	tree := g.Tree()
	c := model.Compile(tree)
	for _, e := range g.Edges() {
		for _, child := range e.CutChildren {
			if c.Colour[c.Pos[child]] == model.NoSatellite {
				t.Errorf("dual edge %d crosses conflicting tree edge into %s",
					e.ID, tree.Node(child).Name)
			}
		}
		if e.From >= e.To {
			t.Errorf("edge %d not monotone: %d -> %d", e.ID, e.From, e.To)
		}
	}
}

// TestFigure8SigmaLabels is experiment E4: the σ labelling must reproduce
// every label printed in the paper's Figure 8, using the symbolic profiles
// (h_i = 2^i makes sums uniquely decodable).
func TestFigure8SigmaLabels(t *testing.T) {
	tree := workload.PaperTreeSymbolic()
	g := Build(tree)
	h := workload.SymbolicH

	sigmaOf := func(child string) float64 {
		id, ok := tree.NodeByName(child)
		if !ok {
			t.Fatalf("no node %s", child)
		}
		return g.TreeSigma(id)
	}
	cases := []struct {
		child string
		want  float64
		label string
	}{
		{"CRU2", h(1), "h1 (left-most edge leaving the root)"},
		{"CRU3", 0, "0 (second child of the root)"},
		{"CRU4", h(1) + h(2), "h1+h2 (printed on S-B crossing <CRU2,CRU4>)"},
		{"CRU5", 0, "0"},
		{"CRU9", h(1) + h(2) + h(4), "h1+h2+h4"},
		{"sensor9", h(1) + h(2) + h(4) + h(9), "h1+h2+h4+h9 (printed)"},
		{"sensor10", h(10), "h10 (printed)"},
		{"sensor11", h(11), "h11 (printed)"},
		{"CRU6", h(3), "h3"},
		{"CRU13", h(3) + h(6), "h3+h6"},
		{"sensor13", h(3) + h(6) + h(13), "h3+h6+h13 (printed)"},
		{"sensor7", h(7), "h7 (printed)"},
		{"CRU12", h(8), "h8 (printed)"},
		{"sensor12", h(8) + h(12), "h8+h12 (printed)"},
		{"sensor5", h(5), "h5"},
	}
	for _, tc := range cases {
		if got := sigmaOf(tc.child); !almost(got, tc.want) {
			t.Errorf("σ(edge into %s) = %v, want %v = %s", tc.child, got, tc.want, tc.label)
		}
	}
}

// TestSection53BetaExamples checks the two β examples spelled out in §5.3:
// the edge crossing ⟨CRU3,CRU6⟩ carries s6+s13+c63, and the edge crossing
// the sensor edge of CRU10 carries c_{s,10}.
func TestSection53BetaExamples(t *testing.T) {
	tree := workload.PaperTreeSymbolic()
	g := Build(tree)

	cru6, _ := tree.NodeByName("CRU6")
	e, ok := g.EdgeCrossing(cru6)
	if !ok {
		t.Fatal("no dual edge crosses <CRU3,CRU6>")
	}
	want := workload.SymbolicS(6) + workload.SymbolicS(13) + workload.SymbolicC(6)
	if !almost(e.Beta, want) {
		t.Errorf("β(<CRU3,CRU6>) = %v, want s6+s13+c63 = %v", e.Beta, want)
	}
	if got := tree.SatelliteName(e.Colour); got != "B" {
		t.Errorf("colour = %s, want B", got)
	}

	sensor10, _ := tree.NodeByName("sensor10")
	e, ok = g.EdgeCrossing(sensor10)
	if !ok {
		t.Fatal("no dual edge crosses the sensor edge of CRU10")
	}
	if !almost(e.Beta, workload.SymbolicRaw(10)) {
		t.Errorf("β(sensor edge of CRU10) = %v, want c_s10 = %v", e.Beta, workload.SymbolicRaw(10))
	}
}

// TestConflictEdgesHaveNoDual verifies ⟨CRU1,CRU2⟩ and ⟨CRU1,CRU3⟩ are
// excluded from the assignment graph.
func TestConflictEdgesHaveNoDual(t *testing.T) {
	tree := workload.PaperTree()
	g := Build(tree)
	for _, name := range []string{"CRU2", "CRU3"} {
		id, _ := tree.NodeByName(name)
		if _, ok := g.EdgeCrossing(id); ok {
			t.Errorf("conflicting edge into %s has a dual edge", name)
		}
	}
}

// TestDecodeEncodeBijection: for random feasible assignments, encode then
// Decode must round-trip, and the path's S + coloured-B must equal the
// assignment's delay — the core semantic guarantee of the construction.
func TestDecodeEncodeBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		spec := workload.DefaultRandomSpec(1+rng.Intn(15), 1+rng.Intn(4))
		spec.Clustered = trial%2 == 0
		tree := workload.Random(rng, spec)
		g := Build(tree)

		asg := randomFeasible(rng, tree)
		ids, err := encode(g, asg)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		back, err := g.Decode(ids)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if back.Key() != asg.Key() {
			t.Fatalf("trial %d: decode(encode(a)) != a:\n%s\nvs\n%s",
				trial, back.Describe(tree), asg.Describe(tree))
		}
		s, _, b := g.Measures(ids)
		breakdown, err := eval.Evaluate(tree, asg)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(s, breakdown.HostTime) {
			t.Fatalf("trial %d: S(path) = %v, host time = %v", trial, s, breakdown.HostTime)
		}
		if !almost(b, breakdown.MaxSatLoad) {
			t.Fatalf("trial %d: B(path) = %v, max sat load = %v", trial, b, breakdown.MaxSatLoad)
		}
		if !almost(s+b, breakdown.Delay) {
			t.Fatalf("trial %d: S+B = %v, delay = %v", trial, s+b, breakdown.Delay)
		}
	}
}

// randomFeasible samples a random feasible assignment by walking the tree
// top-down and sinking monochromatic subtrees with probability 1/2.
func randomFeasible(rng *rand.Rand, tree *model.Tree) *model.Assignment {
	asg := model.NewAssignment(tree)
	var walk func(id model.NodeID)
	walk = func(id model.NodeID) {
		n := tree.Node(id)
		if n.Kind == model.SensorKind {
			return
		}
		if id != tree.Root() {
			if sat, ok := tree.CorrespondentSatellite(id); ok && rng.Intn(2) == 0 {
				stack := []model.NodeID{id}
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if tree.Node(v).Kind == model.Processing {
						asg.Set(v, model.OnSatellite(sat))
					}
					stack = append(stack, tree.Node(v).Children...)
				}
				return
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root())
	return asg
}

// TestPathsTileLeaves: every monotone S→T path decodes to a cut whose leaf
// intervals tile [0, L-1]; Decode rejects edge sets that do not.
func TestPathsTileLeaves(t *testing.T) {
	tree := workload.PaperTree()
	g := Build(tree)
	// A single dual edge that does not reach T's face cannot decode.
	for _, e := range g.Edges() {
		if e.From == 0 && e.To < g.Sink() {
			if _, err := g.Decode([]int{e.ID}); err == nil {
				t.Fatalf("partial path decoded without error")
			}
			break
		}
	}
}

func TestReportFigure6(t *testing.T) {
	g := Build(workload.PaperTree())
	r := g.Report()
	for _, want := range []string{"8 faces", "17 coloured edges", "crossing <CRU3,CRU6>", "F0"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestSigmaSumEqualsHostTimeProperty(t *testing.T) {
	// Σσ over the encoded path of ANY feasible assignment equals the host
	// execution time — the Figure-8 labelling invariant, on random trees.
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 40; trial++ {
		spec := workload.DefaultRandomSpec(1+rng.Intn(20), 1+rng.Intn(5))
		spec.Clustered = trial%2 == 1
		tree := workload.Random(rng, spec)
		g := Build(tree)
		for k := 0; k < 5; k++ {
			asg := randomFeasible(rng, tree)
			ids, err := encode(g, asg)
			if err != nil {
				t.Fatal(err)
			}
			s, _, _ := g.Measures(ids)
			bd, err := eval.Evaluate(tree, asg)
			if err != nil {
				t.Fatal(err)
			}
			if !almost(s, bd.HostTime) {
				t.Fatalf("trial %d.%d: Σσ = %v, host time = %v", trial, k, s, bd.HostTime)
			}
		}
	}
}

// TestPlanWorkGraphMatchesBuildPlan: the registry fills its work graph
// straight from the compiled plan, and BuildPlan copies those edges out.
// Both must equal BuildPointer's independently built edges field for
// field, each face's out-list must be the edges leaving it, the Pareto
// DP's answer must encode to the reference path, and solves on the plan
// and on the pointer graph must agree exactly, stalled ones included.
func TestPlanWorkGraphMatchesBuildPlan(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(26))
	fellBack := 0
	for i := range 40 {
		spec := workload.DefaultRandomSpec(16+rng.Intn(113), 2+rng.Intn(4))
		spec.Clustered = i%4 != 3
		tree := workload.Random(rng, spec)
		c := model.Compile(tree)
		g := BuildPointer(tree)

		w := planWorkGraph(c)
		if len(w.edges) != g.NumEdges() || w.outStart[w.faces] != g.NumEdges() || w.faces != g.Faces() {
			t.Fatalf("tree %d: %d edges, %d faces; BuildPointer has %d, %d", i, len(w.edges), w.faces, g.NumEdges(), g.Faces())
		}
		plan := BuildPlan(c).Edges()
		for id, e := range g.Edges() {
			want := workEdge{from: e.From, to: e.To, sigma: e.Sigma, beta: e.Beta,
				colour: e.Colour, child: e.CutChildren[0], prefix: -1}
			if w.edges[id] != want {
				t.Fatalf("tree %d, edge %d: %+v, BuildPointer %+v", i, id, w.edges[id], want)
			}
			if p := plan[id]; p.ID != e.ID || p.From != e.From || p.To != e.To || p.Sigma != e.Sigma ||
				p.Beta != e.Beta || p.Colour != e.Colour || !slices.Equal(p.CutChildren, e.CutChildren) {
				t.Fatalf("tree %d, edge %d: BuildPlan %+v, BuildPointer %+v", i, id, p, e)
			}
		}
		for f := range w.faces {
			for id := w.outStart[f]; id < w.outStart[f+1]; id++ {
				if w.edges[id].from != f {
					t.Fatalf("tree %d: edge %d leaves face %d, listed under %d", i, id, w.edges[id].from, f)
				}
			}
		}
		dp, err := exact.ParetoWeighted(ctx, tree, dwg.Default, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, asg := range []*model.Assignment{dp.Assignment, model.NewAssignment(tree), c.TopmostAssignment()} {
			want, err1 := refEncode(g, asg)
			got, err2 := w.encode(asg)
			if err1 != nil || err2 != nil || !slices.Equal(got, want) {
				t.Fatalf("tree %d: encode %v (%v), reference %v (%v)", i, got, err2, want, err1)
			}
		}
		w.release()

		for _, opt := range []Options{{}, {DisableExpansion: true}} {
			want, err1 := g.SolveAdapted(opt)
			got, err2 := solvePlan(ctx, c, opt)
			if err1 != nil || err2 != nil {
				t.Fatalf("tree %d, %+v: pointer err %v, plan err %v", i, opt, err1, err2)
			}
			if got.S != want.S || got.B != want.B || got.Objective != want.Objective || got.Delay != want.Delay ||
				got.Stats != want.Stats || got.Assignment.Key() != want.Assignment.Key() ||
				!slices.Equal(got.CutChildren, want.CutChildren) {
				t.Fatalf("tree %d, %+v: plan solve %+v, pointer solve %+v", i, opt, got, want)
			}
			if got.Stats.FellBack {
				fellBack++
			}
		}
	}
	if fellBack == 0 {
		t.Fatal("no solve fell back to the Pareto DP; the encode path went untested")
	}
	t.Logf("%d of 80 solves fell back to the Pareto DP", fellBack)
}
