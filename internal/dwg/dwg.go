package dwg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Graph is a doubly weighted directed multigraph over nodes 0..N-1.
// Parallel edges and self-loops are allowed. Edges keep stable IDs and can
// be disabled (soft-deleted) one by one, which is how the elimination loop
// shrinks the graph without rebuilding adjacency.
type Graph struct {
	n        int
	edges    []edge
	disabled []bool
	adj      [][]int // node -> IDs of the edges leaving it
}

// edge is one directed edge; σ is the shortest-path search weight.
type edge struct {
	from, to    int
	sigma, beta float64
}

// New returns an empty DWG with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("dwg: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the edge count (including disabled edges).
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts a directed edge with weights ⟨σ, β⟩ and returns its ID.
func (g *Graph) AddEdge(from, to int, sigma, beta float64) int {
	if sigma < 0 || beta < 0 || math.IsNaN(sigma) || math.IsNaN(beta) {
		panic(fmt.Sprintf("dwg: invalid weights σ=%v β=%v", sigma, beta))
	}
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("dwg: edge (%d,%d) outside [0,%d)", from, to, g.n))
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{from: from, to: to, sigma: sigma, beta: beta})
	g.disabled = append(g.disabled, false)
	g.adj[from] = append(g.adj[from], id)
	return id
}

// Sigma returns σ of edge id.
func (g *Graph) Sigma(id int) float64 { return g.edges[id].sigma }

// Beta returns β of edge id.
func (g *Graph) Beta(id int) float64 { return g.edges[id].beta }

// Endpoints returns the endpoints of edge id.
func (g *Graph) Endpoints(id int) (from, to int) {
	e := g.edges[id]
	return e.from, e.to
}

// Clone returns an independent deep copy (edge enable/disable state
// included).
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		n:        g.n,
		edges:    append([]edge(nil), g.edges...),
		disabled: append([]bool(nil), g.disabled...),
		adj:      make([][]int, g.n),
	}
	for i, a := range g.adj {
		cp.adj[i] = append([]int(nil), a...)
	}
	return cp
}

// path is a directed walk described by its edge IDs plus its S measure.
// An empty path (edges == nil, weight == 0) is the trivial path from a
// node to itself.
type path struct {
	edges  []int
	weight float64
}

// shortestPath runs binary-heap Dijkstra on σ from src to dst over enabled
// edges and returns the min-S path and true, or a zero path and false when
// dst is unreachable. AddEdge rejects negative σ, so Dijkstra applies.
func (g *Graph) shortestPath(src, dst int) (path, bool) {
	dist := make([]float64, g.n)
	via := make([]int, g.n) // edge that last lowered each node's distance
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = -1
	}
	dist[src] = 0
	pq := newHeap(g.n)
	pq.push(src, 0)
	for pq.len() > 0 {
		u, du := pq.pop()
		if du > dist[u] {
			continue // stale entry
		}
		if u == dst {
			break
		}
		for _, id := range g.adj[u] {
			if g.disabled[id] {
				continue
			}
			e := &g.edges[id]
			if nd := du + e.sigma; nd < dist[e.to] {
				dist[e.to] = nd
				via[e.to] = id
				pq.push(e.to, nd)
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return path{}, false
	}
	var ids []int
	for v := dst; v != src; v = g.edges[via[v]].from {
		ids = append(ids, via[v])
	}
	slices.Reverse(ids)
	return path{edges: ids, weight: dist[dst]}, true
}

// nodeHeap is a minimal binary min-heap of (node, priority) pairs with lazy
// deletion (duplicates allowed; stale entries skipped by the caller).
type nodeHeap struct {
	node []int
	prio []float64
}

func newHeap(capacity int) *nodeHeap {
	return &nodeHeap{node: make([]int, 0, capacity), prio: make([]float64, 0, capacity)}
}

func (h *nodeHeap) len() int { return len(h.node) }

func (h *nodeHeap) push(n int, p float64) {
	h.node = append(h.node, n)
	h.prio = append(h.prio, p)
	i := len(h.node) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *nodeHeap) pop() (int, float64) {
	n, p := h.node[0], h.prio[0]
	last := len(h.node) - 1
	h.swap(0, last)
	h.node = h.node[:last]
	h.prio = h.prio[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.prio[l] < h.prio[small] {
			small = l
		}
		if r < last && h.prio[r] < h.prio[small] {
			small = r
		}
		if small == i {
			break
		}
		h.swap(i, small)
		i = small
	}
	return n, p
}

func (h *nodeHeap) swap(i, j int) {
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}

// S returns the sum weight of a path given by edge IDs.
func (g *Graph) S(edges []int) float64 {
	var s float64
	for _, id := range edges {
		s += g.Sigma(id)
	}
	return s
}

// B returns the bottleneck weight (max β) of a path given by edge IDs.
func (g *Graph) B(edges []int) float64 {
	var b float64
	for _, id := range edges {
		if beta := g.edges[id].beta; beta > b {
			b = beta
		}
	}
	return b
}

// Weights are the coefficients of the SSB measure: SSB(P) = WS·S(P) +
// WB·B(P). The paper's §4 uses (λ, 1−λ); its §5 end-to-end delay objective
// is the plain sum, i.e. Default = (1, 1).
type Weights struct {
	WS, WB float64
}

// Default is the end-to-end-delay weighting SSB = S + B used throughout §5.
var Default = Weights{WS: 1, WB: 1}

// Lambda returns the §4 weighting SSB = λ·S + (1−λ)·B.
func Lambda(l float64) Weights { return Weights{WS: l, WB: 1 - l} }

// Valid reports whether the weights are usable (non-negative, not both 0).
func (w Weights) Valid() bool {
	return w.WS >= 0 && w.WB >= 0 && (w.WS > 0 || w.WB > 0) &&
		!math.IsNaN(w.WS) && !math.IsNaN(w.WB)
}

// Value computes WS·s + WB·b.
func (w Weights) Value(s, b float64) float64 { return w.WS*s + w.WB*b }

// Iteration records one round of the elimination loop, mirroring the rows of
// the paper's Figure 4.
type Iteration struct {
	Index     int     // 1-based iteration number
	PathEdges []int   // min-S path found this round
	S, B      float64 // its measures
	Objective float64 // SSB or SB value of the path
	Improved  bool    // whether it replaced the candidate
	Candidate float64 // candidate objective after this round
	Removed   []int   // edge IDs eliminated this round
	Stopped   string  // non-empty when this round terminated the loop ("bound", "disconnected")
}

// Result is the outcome of SSB or SB.
type Result struct {
	PathEdges  []int   // optimal path (edge IDs into the input graph)
	S, B       float64 // measures of the optimal path
	Objective  float64 // optimal objective value
	Iterations []Iteration
	Expansions int // always 0 here; the coloured solver reuses Result
}

// ErrNoPath is returned when the terminals are not connected.
var ErrNoPath = errors.New("dwg: no path between the terminals")

// ErrBadWeights is returned for invalid objective weights.
var ErrBadWeights = errors.New("dwg: invalid SSB weights")

// SSB finds a path from src to dst minimising w.WS·S(P) + w.WB·B(P) using
// the paper's iterative algorithm (Figure 3): repeat { find min-S path;
// update candidate; eliminate edges with β ≥ B(path) } until the graph
// disconnects or the min-S weight alone proves no better path remains.
// The input graph is not modified. Complexity O(|V|²·|E|) as per §4.2.
func SSB(g *Graph, src, dst int, w Weights) (*Result, error) {
	if !w.Valid() {
		return nil, ErrBadWeights
	}
	return eliminate(g, src, dst, w.Value, func(s float64) float64 { return w.WS * s })
}

// SB is Bokhari's algorithm: it finds a path minimising max(S(P), B(P)),
// the bottleneck processing time objective the paper contrasts with SSB.
func SB(g *Graph, src, dst int) (*Result, error) {
	return eliminate(g, src, dst, func(s, b float64) float64 { return math.Max(s, b) },
		func(s float64) float64 { return s })
}

// eliminate is the shared skeleton. objective(s, b) must be non-decreasing
// in both arguments; lower(s) must be a lower bound for objective(s', b')
// over any path with s' ≥ s and b' ≥ 0 (used for the termination test).
func eliminate(g *Graph, src, dst int, objective func(s, b float64) float64, lower func(s float64) float64) (*Result, error) {
	work := g.Clone()
	res := &Result{Objective: math.Inf(1)}
	for iter := 1; ; iter++ {
		path, ok := work.shortestPath(src, dst)
		if !ok {
			if len(res.Iterations) > 0 {
				res.Iterations[len(res.Iterations)-1].Stopped = "disconnected"
			}
			break
		}
		s := path.weight
		b := work.B(path.edges)
		val := objective(s, b)
		it := Iteration{Index: iter, PathEdges: path.edges, S: s, B: b, Objective: val}
		if val < res.Objective {
			res.Objective = val
			res.PathEdges = append([]int(nil), path.edges...)
			res.S, res.B = s, b
			it.Improved = true
		}
		it.Candidate = res.Objective
		if lower(s) >= res.Objective {
			// Every remaining path has S ≥ s, so its objective is at least
			// lower(s) ≥ candidate: the candidate is optimal.
			it.Stopped = "bound"
			res.Iterations = append(res.Iterations, it)
			break
		}
		// Eliminate every enabled edge whose β reaches the bottleneck of the
		// round's path. At least one edge (the path's bottleneck) goes, so
		// the loop makes progress every round.
		for id := 0; id < work.NumEdges(); id++ {
			if !work.disabled[id] && work.edges[id].beta >= b {
				work.disabled[id] = true
				it.Removed = append(it.Removed, id)
			}
		}
		res.Iterations = append(res.Iterations, it)
	}
	if math.IsInf(res.Objective, 1) {
		return nil, ErrNoPath
	}
	return res, nil
}

// ExhaustiveBest enumerates every simple src→dst path (exponential; testing
// and small baselines only) and returns the minimum objective value.
func ExhaustiveBest(g *Graph, src, dst int, objective func(s, b float64) float64) (float64, bool) {
	best := math.Inf(1)
	found := false
	onPath := make([]bool, g.NumNodes())
	var edges []int
	var dfs func(u int)
	dfs = func(u int) {
		if u == dst {
			if v := objective(g.S(edges), g.B(edges)); v < best {
				best = v
			}
			found = true
			return
		}
		onPath[u] = true
		for _, id := range g.adj[u] {
			if g.disabled[id] || onPath[g.edges[id].to] {
				continue
			}
			edges = append(edges, id)
			dfs(g.edges[id].to)
			edges = edges[:len(edges)-1]
		}
		onPath[u] = false
	}
	dfs(src)
	return best, found
}

// FormatTrace renders the iteration log in the style of Figure 4, with node
// names supplied by the caller (nil uses numeric IDs).
func FormatTrace(g *Graph, res *Result, nodeName func(int) string) string {
	if nodeName == nil {
		nodeName = func(v int) string { return fmt.Sprintf("%d", v) }
	}
	var sb strings.Builder
	for _, it := range res.Iterations {
		fmt.Fprintf(&sb, "Iteration %d: path", it.Index)
		for _, id := range it.PathEdges {
			from, to := g.Endpoints(id)
			fmt.Fprintf(&sb, " %s-<%g,%g>->%s", nodeName(from), g.Sigma(id), g.Beta(id), nodeName(to))
		}
		fmt.Fprintf(&sb, "  S=%g B=%g obj=%g", it.S, it.B, it.Objective)
		if it.Improved {
			fmt.Fprintf(&sb, "  (new candidate %g)", it.Candidate)
		}
		if len(it.Removed) > 0 {
			fmt.Fprintf(&sb, "  removed=%d", len(it.Removed))
		}
		if it.Stopped != "" {
			fmt.Fprintf(&sb, "  [stop: %s]", it.Stopped)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "optimal objective = %g (S=%g, B=%g)\n", res.Objective, res.S, res.B)
	return sb.String()
}
