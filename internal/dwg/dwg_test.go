package dwg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// figure4 reconstructs the DWG of the paper's Figure 4: three nodes S→M→T
// with four parallel edges on each side. This graph reproduces every
// number printed in the figure.
func figure4() (*Graph, int, int) {
	g := New(3)
	const s, m, t = 0, 1, 2
	g.AddEdge(s, m, 5, 10)
	g.AddEdge(s, m, 6, 8)
	g.AddEdge(s, m, 15, 10)
	g.AddEdge(s, m, 20, 9)
	g.AddEdge(m, t, 4, 20)
	g.AddEdge(m, t, 5, 10)
	g.AddEdge(m, t, 6, 12)
	g.AddEdge(m, t, 27, 8)
	return g, s, t
}

func TestFigure4Trace(t *testing.T) {
	g, src, dst := figure4()
	res, err := SSB(g, src, dst, Default)
	if err != nil {
		t.Fatalf("SSB: %v", err)
	}
	if res.Objective != 20 {
		t.Fatalf("optimal SSB = %v, want 20 (paper Figure 4)", res.Objective)
	}
	if res.S != 10 || res.B != 10 {
		t.Fatalf("optimal path S=%v B=%v, want 10/10 (path ⟨5,10⟩-⟨5,10⟩)", res.S, res.B)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("iterations = %d, want 3 (as printed in Figure 4)", len(res.Iterations))
	}
	it1, it2, it3 := res.Iterations[0], res.Iterations[1], res.Iterations[2]
	// Iteration 1: min-S path ⟨5,10⟩-⟨4,20⟩, SSB = 9+20 = 29, becomes candidate.
	if it1.S != 9 || it1.B != 20 || it1.Objective != 29 || !it1.Improved || it1.Candidate != 29 {
		t.Errorf("iteration 1 = %+v, want S=9 B=20 SSB=29", it1)
	}
	// Iteration 2: ⟨5,10⟩-⟨5,10⟩, SSB = 20, replaces candidate.
	if it2.S != 10 || it2.B != 10 || it2.Objective != 20 || !it2.Improved || it2.Candidate != 20 {
		t.Errorf("iteration 2 = %+v, want S=10 B=10 SSB=20", it2)
	}
	// Iteration 3: remaining min-S path has S = 6+27 = 33 > 20 ⇒ terminate.
	if it3.S != 33 || it3.Stopped != "bound" || it3.Improved {
		t.Errorf("iteration 3 = %+v, want S=33 stop=bound", it3)
	}
}

func TestFigure4MatchesExhaustive(t *testing.T) {
	g, src, dst := figure4()
	res, err := SSB(g, src, dst, Default)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := ExhaustiveBest(g, src, dst, Default.Value)
	if !ok || res.Objective != want {
		t.Fatalf("SSB = %v, exhaustive = %v (ok=%v)", res.Objective, want, ok)
	}
}

func TestSBOnFigure4(t *testing.T) {
	g, src, dst := figure4()
	res, err := SB(g, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := ExhaustiveBest(g, src, dst, func(s, b float64) float64 { return math.Max(s, b) })
	if !ok || res.Objective != want {
		t.Fatalf("SB = %v, exhaustive = %v", res.Objective, want)
	}
	// The SB and SSB objectives disagree on this graph: the minimax optimum
	// is the ⟨5,10⟩-⟨5,10⟩ path with max(10,10)=10.
	if res.Objective != 10 {
		t.Fatalf("SB objective = %v, want 10", res.Objective)
	}
}

func TestLambdaWeights(t *testing.T) {
	g, src, dst := figure4()
	// λ=1: pure min-S. Optimal is the ⟨5,10⟩+⟨4,20⟩ path with S=9.
	res, err := SSB(g, src, dst, Lambda(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 9 || res.S != 9 {
		t.Fatalf("λ=1: obj=%v S=%v, want 9", res.Objective, res.S)
	}
	// λ=0: pure bottleneck. Best achievable max β: pick β=10 and β=8 → B=10?
	// S-side minimum β is 8 (⟨6,8⟩), T-side minimum β is 8 (⟨27,8⟩) → B=8.
	res, err = SSB(g, src, dst, Lambda(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 8 {
		t.Fatalf("λ=0: obj=%v, want 8", res.Objective)
	}
	for _, l := range []float64{0.25, 0.5, 0.75} {
		res, err := SSB(g, src, dst, Lambda(l))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ExhaustiveBest(g, src, dst, Lambda(l).Value)
		if res.Objective != want {
			t.Errorf("λ=%v: SSB=%v exhaustive=%v", l, res.Objective, want)
		}
	}
}

func TestInvalidWeights(t *testing.T) {
	g, src, dst := figure4()
	for _, w := range []Weights{{-1, 1}, {0, 0}, {math.NaN(), 1}} {
		if _, err := SSB(g, src, dst, w); err == nil {
			t.Errorf("weights %+v accepted", w)
		}
	}
}

func TestNoPath(t *testing.T) {
	g := New(2)
	if _, err := SSB(g, 0, 1, Default); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	if _, err := SB(g, 0, 1); err != ErrNoPath {
		t.Fatalf("SB err = %v, want ErrNoPath", err)
	}
}

func TestSingleEdge(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 3, 7)
	res, err := SSB(g, 0, 1, Default)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 10 || len(res.Iterations) != 1 {
		t.Fatalf("single edge: obj=%v iters=%d", res.Objective, len(res.Iterations))
	}
}

func TestZeroBetaPathTerminatesImmediately(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, 1, 0)
	g.AddEdge(0, 2, 10, 0)
	res, err := SSB(g, 0, 2, Default)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 2 {
		t.Fatalf("obj = %v, want 2", res.Objective)
	}
	// B = 0 means the first min-S path is provably optimal: one iteration.
	if len(res.Iterations) != 1 || res.Iterations[0].Stopped != "bound" {
		t.Fatalf("iterations = %+v", res.Iterations)
	}
}

func TestInputGraphNotModified(t *testing.T) {
	g, src, dst := figure4()
	before := g.NumEdges()
	if _, err := SSB(g, src, dst, Default); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != before {
		t.Fatal("edge count changed")
	}
	// All edges still enabled: SSB again must give the same answer.
	res2, err := SSB(g, src, dst, Default)
	if err != nil || res2.Objective != 20 {
		t.Fatalf("second run: %v obj=%v", err, res2.Objective)
	}
}

func TestAddEdgePanicsOnNegative(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(0, 1, -1, 0)
}

// randomDWG builds a layered random DWG with guaranteed connectivity.
func randomDWG(rng *rand.Rand, layers, width, extra int) (*Graph, int, int) {
	n := layers*width + 2
	g := New(n)
	src, dst := n-2, n-1
	node := func(l, w int) int { return l*width + w }
	for w := 0; w < width; w++ {
		g.AddEdge(src, node(0, w), float64(rng.Intn(10)), float64(rng.Intn(15)))
		g.AddEdge(node(layers-1, w), dst, float64(rng.Intn(10)), float64(rng.Intn(15)))
	}
	for l := 0; l+1 < layers; l++ {
		for w := 0; w < width; w++ {
			// at least one forward edge per node
			g.AddEdge(node(l, w), node(l+1, rng.Intn(width)), float64(rng.Intn(10)), float64(rng.Intn(15)))
		}
	}
	for k := 0; layers > 1 && k < extra; k++ {
		l := rng.Intn(layers - 1)
		g.AddEdge(node(l, rng.Intn(width)), node(l+1, rng.Intn(width)),
			float64(rng.Intn(10)), float64(rng.Intn(15)))
	}
	return g, src, dst
}

func TestSSBMatchesExhaustiveProperty(t *testing.T) {
	f := func(seed int64, layersRaw, widthRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 1 + int(layersRaw)%4
		width := 1 + int(widthRaw)%4
		extra := int(extraRaw) % 8
		g, src, dst := randomDWG(rng, layers, width, extra)
		res, err := SSB(g, src, dst, Default)
		if err != nil {
			return false
		}
		want, ok := ExhaustiveBest(g, src, dst, Default.Value)
		if !ok || res.Objective != want {
			return false
		}
		// Result path must be consistent with its reported measures.
		return g.S(res.PathEdges) == res.S && g.B(res.PathEdges) == res.B &&
			res.S+res.B == res.Objective
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSBMatchesExhaustiveProperty(t *testing.T) {
	obj := func(s, b float64) float64 { return math.Max(s, b) }
	f := func(seed int64, layersRaw, widthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 1 + int(layersRaw)%4
		width := 1 + int(widthRaw)%4
		g, src, dst := randomDWG(rng, layers, width, 4)
		res, err := SB(g, src, dst)
		if err != nil {
			return false
		}
		want, ok := ExhaustiveBest(g, src, dst, obj)
		return ok && res.Objective == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestEliminationSoundnessProperty(t *testing.T) {
	// Every removed edge must genuinely be unable to improve on the final
	// optimum: re-running exhaustive search restricted to paths through a
	// removed edge can never beat the optimum.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g, src, dst := randomDWG(rng, 1+rng.Intn(3), 1+rng.Intn(3), rng.Intn(6))
		res, err := SSB(g, src, dst, Default)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range res.Iterations {
			for _, removed := range it.Removed {
				// Any path through `removed` has B ≥ β(removed); a lower
				// bound on its SSB is σ-shortest-path + β(removed). Verify
				// the bound does not beat the optimum.
				lb := g.Beta(removed)
				if lb+0 > 0 && res.Objective < lb && false {
					t.Fatal("unreachable")
				}
				// Direct check: exhaustive over paths containing the edge.
				best := math.Inf(1)
				onPath := make([]bool, g.NumNodes())
				var edges []int
				used := false
				var dfs func(u int)
				dfs = func(u int) {
					if u == dst {
						if used {
							if v := g.S(edges) + g.B(edges); v < best {
								best = v
							}
						}
						return
					}
					onPath[u] = true
					for id := 0; id < g.NumEdges(); id++ {
						from, to := g.Endpoints(id)
						if from != u || onPath[to] {
							continue
						}
						wasUsed := used
						if id == removed {
							used = true
						}
						edges = append(edges, id)
						dfs(to)
						edges = edges[:len(edges)-1]
						used = wasUsed
					}
					onPath[u] = false
				}
				dfs(src)
				if best < res.Objective {
					t.Fatalf("removed edge %d admits a better path: %v < %v", removed, best, res.Objective)
				}
			}
		}
	}
}

func TestFormatTrace(t *testing.T) {
	g, src, dst := figure4()
	res, err := SSB(g, src, dst, Default)
	if err != nil {
		t.Fatal(err)
	}
	names := map[int]string{0: "S", 1: "M", 2: "T"}
	out := FormatTrace(g, res, func(v int) string { return names[v] })
	for _, want := range []string{"Iteration 1", "Iteration 3", "S=33", "optimal objective = 20", "[stop: bound]"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if out2 := FormatTrace(g, res, nil); !strings.Contains(out2, "0-<") {
		t.Error("nil nodeName should fall back to IDs")
	}
}

// diamond is a plain σ graph for the shortest-path kernel: 0 -> 1 -> 3
// (cost 1+1), 0 -> 2 -> 3 (cost 5+1) and direct 0->3 (cost 10).
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 3, 1, 0)
	g.AddEdge(0, 2, 5, 0)
	g.AddEdge(2, 3, 1, 0)
	g.AddEdge(0, 3, 10, 0)
	return g
}

func TestShortestPathBasic(t *testing.T) {
	g := diamond()
	p, ok := g.shortestPath(0, 3)
	if !ok || p.weight != 2 {
		t.Fatalf("shortestPath = %+v ok=%v, want weight 2", p, ok)
	}
	if len(p.edges) != 2 {
		t.Fatalf("path edges = %v", p.edges)
	}
	if _, to := g.Endpoints(p.edges[0]); to != 1 {
		t.Errorf("path edges = %v", p.edges)
	}
}

func TestShortestPathAfterDisable(t *testing.T) {
	g := diamond()
	g.disabled[0] = true // kill 0->1
	p, ok := g.shortestPath(0, 3)
	if !ok || p.weight != 6 {
		t.Fatalf("after disable, weight = %v, want 6", p.weight)
	}
	g.disabled[2] = true // kill 0->2
	p, ok = g.shortestPath(0, 3)
	if !ok || p.weight != 10 {
		t.Fatalf("after two disables, weight = %v, want 10", p.weight)
	}
	g.disabled[4] = true
	if _, ok = g.shortestPath(0, 3); ok {
		t.Fatal("expected unreachable")
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	e1 := g.AddEdge(0, 1, 5, 0)
	e2 := g.AddEdge(0, 1, 3, 0)
	p, ok := g.shortestPath(0, 1)
	if !ok || p.weight != 3 || p.edges[0] != e2 {
		t.Fatalf("parallel edge selection wrong: %+v", p)
	}
	g.disabled[e2] = true
	p, ok = g.shortestPath(0, 1)
	if !ok || p.edges[0] != e1 {
		t.Fatalf("should fall back to e1: %+v", p)
	}
}

func TestSelfPath(t *testing.T) {
	g := New(3)
	p, ok := g.shortestPath(1, 1)
	if !ok || p.weight != 0 || len(p.edges) != 0 {
		t.Fatalf("self path = %+v ok=%v", p, ok)
	}
}

func TestZeroWeightEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 2, 0, 0)
	p, ok := g.shortestPath(0, 2)
	if !ok || p.weight != 0 || len(p.edges) != 2 {
		t.Fatalf("zero-weight path = %+v", p)
	}
}

// TestNegativeWeightPanics covers the weight checks
// TestAddEdgePanicsOnNegative does not: a negative β and NaN weights.
func TestNegativeWeightPanics(t *testing.T) {
	for _, w := range [][2]float64{{0, -1}, {math.NaN(), 0}, {0, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddEdge(σ=%v, β=%v) did not panic", w[0], w[1])
				}
			}()
			New(2).AddEdge(0, 1, w[0], w[1])
		}()
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(0, 5, 1, 1)
}

func TestClone(t *testing.T) {
	g := diamond()
	cp := g.Clone()
	cp.disabled[0] = true
	if g.disabled[0] {
		t.Fatal("Clone shares disabled state")
	}
	cp.AddEdge(3, 0, 1, 1)
	if g.NumEdges() == cp.NumEdges() || len(g.adj[3]) != 0 {
		t.Fatal("Clone shares edge storage")
	}
	if p, ok := g.shortestPath(0, 3); !ok || p.weight != 2 {
		t.Fatalf("original after clone edits: %+v ok=%v, want weight 2", p, ok)
	}
}

func TestPathEdgeChainProperty(t *testing.T) {
	// The returned edge list must be a contiguous chain from src to dst
	// whose σ sum is the reported weight.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := New(n)
		for i := 0; i+1 < n; i++ { // spine, so dst is reachable
			g.AddEdge(i, i+1, float64(rng.Intn(20)), 0)
		}
		for k := rng.Intn(80); k > 0; k-- {
			u := rng.Intn(n - 1)
			g.AddEdge(u, u+1+rng.Intn(n-u-1), float64(rng.Intn(20)), 0)
		}
		p, ok := g.shortestPath(0, n-1)
		if !ok {
			t.Fatal("spine guarantees reachability")
		}
		at := 0
		for _, id := range p.edges {
			from, to := g.Endpoints(id)
			if from != at {
				t.Fatalf("broken chain at edge %d: from %d, at %d", id, from, at)
			}
			at = to
		}
		if at != n-1 {
			t.Fatalf("chain ends at %d, want %d", at, n-1)
		}
		if s := g.S(p.edges); s != p.weight {
			t.Fatalf("path weight %v, edges sum to %v", p.weight, s)
		}
	}
}

func TestHeapOrderProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := newHeap(len(vals))
		for i, v := range vals {
			if v < 0 {
				v = -v
			}
			if v != v { // NaN would poison ordering; skip
				v = 0
			}
			h.push(i, v)
		}
		prev := -1.0
		for h.len() > 0 {
			_, p := h.pop()
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
