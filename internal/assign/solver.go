package assign

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/pool"
)

// Options tunes the solvers. The zero value selects the paper's defaults:
// the end-to-end delay objective S + B and a generous expansion budget.
type Options struct {
	// Weights of the objective WS·S(P) + WB·B(P). Zero value means
	// dwg.Default (1, 1), the §5 end-to-end delay.
	Weights dwg.Weights

	// MaxExpandedEdges caps the Pareto frontier of every face of a band
	// expansion: when the merged frontier of any face in the band holds
	// more traversal prefixes than this, the solver falls back to the
	// per-region Pareto DP. The band's exit face frontier becomes its
	// super-edges, so this also caps the super-edges one expansion
	// creates. 0 means the default of 200000.
	MaxExpandedEdges int

	// DisableExpansion forces the solver to fall back to the Pareto DP as
	// soon as per-edge elimination stalls (used to exercise the fallback
	// path in tests and ablation benches).
	DisableExpansion bool

	// ConservativeElimination restricts edge elimination to the paper's
	// literal rule (β ≥ B of the round's path) instead of additionally
	// removing edges that provably cannot beat the incumbent candidate.
	// Ablation knob: both variants are exact, the tightened rule converges
	// in far fewer iterations (see BenchmarkAblation_Elimination).
	ConservativeElimination bool
}

func (o Options) weights() dwg.Weights { return core.WeightsOr(o.Weights) }

func (o Options) maxExpanded() int { return core.IntOr(o.MaxExpandedEdges, 200000) }

// Stats reports how the solve went. It is an alias of core.SearchStats so
// the registry's uniform Outcome can carry it without core depending on
// this package.
type Stats = core.SearchStats

// TraceEntry records one iteration of the adapted SSB loop (experiment E5).
type TraceEntry struct {
	Iteration        int
	S, B             float64
	Objective        float64
	Candidate        float64
	BottleneckColour model.SatelliteID
	Removed          int
	ExpandedColour   model.SatelliteID // NoSatellite when no expansion happened
	Note             string            // "", "stop: bound", "stop: disconnected", "fallback"
}

// Solution is an optimal (or heuristic) assignment with its measures.
type Solution struct {
	Assignment  *model.Assignment
	CutChildren []model.NodeID // tree-edge children crossed by the optimal cut
	S, B        float64        // host time and bottleneck-satellite load
	Delay       float64        // S + B: the end-to-end delay (§3 objective)
	Objective   float64        // WS·S + WB·B under the options' weights
	Stats       Stats
	// Trace is the per-iteration log of the adapted SSB loop. Only direct
	// Graph.SolveAdapted/SolveAdaptedContext calls (Solve among them)
	// record it; solves dispatched through the registry, and so every
	// Solver and Service solve, leave it nil.
	Trace []TraceEntry
}

// workEdge is a mutable copy of Edge inside the solver's shrinking graph.
// A base edge crosses the one tree edge above child. A super-edge stands
// for a whole band traversal: prefix is the arena index of the traversal's
// last prefix, and its crossed children are decoded only if the edge ends
// up on the returned path.
type workEdge struct {
	from, to    int
	sigma, beta float64
	colour      model.SatelliteID
	child       model.NodeID // base edges only
	prefix      int          // super-edges only; -1 on base edges
	disabled    bool
}

// bundle is one expanded band. Its super-edges are the ids lo..hi-1, all
// running entry→exit with ascending σ and strictly descending β, so
// elimination always disables a prefix of them and cur is the first
// enabled member. Bundle members are kept out of the out-lists: the min-σ
// pass only ever needs the first enabled one.
type bundle struct {
	entry, exit int
	lo, hi, cur int
}

type workGraph struct {
	// plan is the solve's compiled plan; walk places cut subtrees by
	// BuildPointer's stack walk instead of span fills (the pointer twin).
	plan *model.Compiled
	walk bool

	faces int
	edges []workEdge
	// outStart is the face out-lists in CSR form: face f's base edges are
	// the ids outStart[f] to outStart[f+1]-1, and outStart[faces] counts
	// the base edges. Super-edges live in bundles.
	outStart []int

	bundles  []bundle
	bundleAt []int // face -> index of the bundle entered there, or -1

	// byBeta lists the base edges by descending β. Elimination disables
	// every edge with β ≥ the round's threshold, so the edges it has
	// disabled are always byBeta[:elimCur].
	byBeta  []betaRef
	elimCur int

	// Reusable buffers for minSigmaPath: the adapted loop calls it once per
	// iteration, and iteration counts scale with the expanded edge count.
	dist []float64
	via  []int

	// expanded marks colours already band-expanded this solve.
	expanded []bool

	// arena holds the Pareto prefixes of every band expansion of the solve;
	// super-edges point into it. It is append-only until the next solve.
	// A prefix is a point (σ, β) whose A is its last edge and P the arena
	// index of the prefix it extends; a band's entry has A and P -1.
	// faceStart, inStart, inEdges and heads are expandColour's per-band
	// scratch.
	arena     []dwg.Point
	faceStart []int
	inStart   []int
	inEdges   []int
	heads     []dwg.Shift

	// path is minSigmaPath's result buffer (callers copy what they keep);
	// loads is measures' dense per-colour accumulator.
	path  []int
	loads []float64
}

// workGraphs is the pooled scratch arena of the path solvers: one
// workGraph (mutable edge set, adjacency, DP buffers, expansion bitset)
// is checked out per solve and returned on every exit path, so the
// steady-state adapted-SSB loop allocates only its Solution.
var workGraphs = pool.NewArena(func() *workGraph { return new(workGraph) })

// getWorkGraph checks out a workGraph for a solve on plan c, every
// buffer resized and its edge set empty.
func getWorkGraph(c *model.Compiled, walk bool) *workGraph {
	w := workGraphs.Get()
	w.plan, w.walk = c, walk
	w.faces = len(c.Leaves) + 1
	w.dist = pool.Keep(w.dist, w.faces)
	w.via = pool.Keep(w.via, w.faces)
	w.bundleAt = pool.Keep(w.bundleAt, w.faces)
	for i := range w.bundleAt {
		w.bundleAt[i] = -1
	}
	w.expanded = pool.Slice(w.expanded, c.NumSats)
	w.loads = pool.Slice(w.loads, c.NumSats)
	w.edges = w.edges[:0]
	w.bundles = w.bundles[:0]
	w.arena = w.arena[:0]
	return w
}

// newWorkGraph copies a built graph's edges into a pooled workGraph.
func newWorkGraph(g *Graph) *workGraph {
	w := getWorkGraph(g.plan, g.treeSigma != nil)
	for _, e := range g.edges {
		w.edges = append(w.edges, workEdge{
			from: e.From, to: e.To, sigma: e.Sigma, beta: e.Beta,
			colour: e.Colour, child: e.CutChildren[0], prefix: -1,
		})
	}
	w.index()
	return w
}

// planWorkGraph fills a pooled workGraph straight from the compiled plan,
// one base edge per non-conflicting tree edge in pre-order of the crossed
// child: tree edge p's dual edge runs across p's leaf span and carries
// σ(p) and β(p). It is the one place that rule lives; BuildPlan copies
// its edges out.
func planWorkGraph(c *model.Compiled) *workGraph {
	w := getWorkGraph(c, false)
	for _, p := range c.Pre {
		colour := c.Colour[p]
		if c.Parent[p] < 0 || colour == model.NoSatellite {
			continue // the cut may never pass through a conflicting edge
		}
		w.edges = append(w.edges, workEdge{
			from: int(c.LeafLo[p]), to: int(c.LeafHi[p]) + 1,
			sigma: c.Sigma[p], beta: c.SubSat[p] + c.UpComm[p],
			colour: colour, child: c.Post[p], prefix: -1,
		})
	}
	w.index()
	return w
}

// index builds the out-lists of the base edges. Both fills emit the edges
// in pre-order of the crossed child, where the leaf spans' low ends never
// decrease, so the edges are already grouped by From and each out-list is
// one id range.
func (w *workGraph) index() {
	out := pool.Slice(w.outStart, w.faces+1)
	for i := range w.edges {
		out[w.edges[i].from+1]++
	}
	for f := 1; f <= w.faces; f++ {
		out[f] += out[f-1]
	}
	w.outStart = out
}

// release returns the workGraph to the arena; every buffer stays for the
// next solve, the plan does not.
func (w *workGraph) release() {
	w.plan = nil
	workGraphs.Put(w)
}

// betaRef is a base edge's entry in the elimination order.
type betaRef struct {
	beta float64
	id   int
}

// sortByBeta readies the elimination cursor: base edges by descending β.
func (w *workGraph) sortByBeta() {
	w.byBeta = w.byBeta[:0]
	for id := range w.edges {
		w.byBeta = append(w.byBeta, betaRef{w.edges[id].beta, id})
	}
	slices.SortFunc(w.byBeta, func(a, b betaRef) int { return cmp.Compare(b.beta, a.beta) })
	w.elimCur = 0
}

// eliminate disables every enabled edge whose β reaches threshold and
// returns how many it disabled, bundle members counted one by one. Base
// edges disabled by an expansion are passed over uncounted.
func (w *workGraph) eliminate(threshold float64) int {
	removed := 0
	for ; w.elimCur < len(w.byBeta) && w.byBeta[w.elimCur].beta >= threshold; w.elimCur++ {
		if e := &w.edges[w.byBeta[w.elimCur].id]; !e.disabled {
			e.disabled = true
			removed++
		}
	}
	for i := range w.bundles {
		b := &w.bundles[i]
		for ; b.cur < b.hi && w.edges[b.cur].beta >= threshold; b.cur++ {
			w.edges[b.cur].disabled = true
			removed++
		}
	}
	return removed
}

func (w *workGraph) enabledCount() int {
	n := 0
	for i := range w.edges {
		if !w.edges[i].disabled {
			n++
		}
	}
	return n
}

// minSigmaPath runs the O(V+E) monotone-DAG pass — the §5.4 observation
// that the min-S path needs no general shortest-path search. A bundle is
// relaxed through its first enabled member, after its entry face's base
// edges: members have ascending σ, so no later one can improve on it.
func (w *workGraph) minSigmaPath() ([]int, bool) {
	dist, via := w.dist, w.via
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = -1
	}
	dist[0] = 0
	for f := 0; f < w.faces; f++ {
		d := dist[f]
		if math.IsInf(d, 1) {
			continue
		}
		for id := w.outStart[f]; id < w.outStart[f+1]; id++ {
			e := &w.edges[id]
			if e.disabled {
				continue
			}
			if nd := d + e.sigma; nd < dist[e.to] {
				dist[e.to] = nd
				via[e.to] = id
			}
		}
		if bi := w.bundleAt[f]; bi >= 0 {
			if b := &w.bundles[bi]; b.cur < b.hi {
				if nd := d + w.edges[b.cur].sigma; nd < dist[b.exit] {
					dist[b.exit] = nd
					via[b.exit] = b.cur
				}
			}
		}
	}
	if math.IsInf(dist[w.faces-1], 1) {
		return nil, false
	}
	// The result lives in the workGraph's path buffer: the adapted loop
	// calls this once per iteration and copies what it keeps.
	ids := w.path[:0]
	for f := w.faces - 1; f != 0; {
		id := via[f]
		ids = append(ids, id)
		f = w.edges[id].from
	}
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	w.path = ids
	return ids, true
}

// measures computes a path's S, its coloured bottleneck B and the colour
// attaining it (smallest colour id on ties, NoSatellite for an empty
// path). Per-colour sums accumulate in the pooled dense table; only
// colours on the path compete for the bottleneck, matching the sparse
// map semantics this replaced.
func (w *workGraph) measures(ids []int) (s, b float64, bottleneck model.SatelliteID) {
	loads := w.loads
	for i := range loads {
		loads[i] = 0
	}
	for _, id := range ids {
		e := &w.edges[id]
		s += e.sigma
		loads[e.colour] += e.beta
	}
	bottleneck = model.NoSatellite
	for _, id := range ids {
		c := w.edges[id].colour
		if v := loads[c]; v > b || (v == b && (bottleneck == model.NoSatellite || c < bottleneck)) {
			b = v
			bottleneck = c
		}
	}
	return s, b, bottleneck
}

// SolveAdapted runs the paper's §5.4 adapted SSB algorithm: iterate the
// min-σ (topmost) path; update the candidate; eliminate every edge whose β
// alone reaches the path's coloured B weight; when no single edge reaches
// it (the bottleneck colour contributes through several edges), expand that
// colour's contiguous bands into super-edges, exactly the Figure-9/10
// procedure. If a colour's sensors are split into several bands — a case
// the paper's construction does not cover — or an expansion exceeds its
// budget, the solver falls back to the exact per-region Pareto DP of
// package exact on the whole tree and keeps the better of its answer and
// the loop's candidate.
func (g *Graph) SolveAdapted(opt Options) (*Solution, error) {
	return g.SolveAdaptedContext(context.Background(), opt)
}

// SolveAdaptedContext is SolveAdapted with cancellation: the context is
// checked once per elimination round and inside the Pareto DP fallback,
// so deadlines stop the solve promptly. On cancellation the returned error
// is the context's.
func (g *Graph) SolveAdaptedContext(ctx context.Context, opt Options) (*Solution, error) {
	w := newWorkGraph(g)
	defer w.release()
	return w.solveAdapted(ctx, opt, true)
}

// solvePlan is the registry's adapted SSB solve: the work graph is filled
// straight from the compiled plan, so no Graph is built, and no trace is
// recorded because nobody reads it.
func solvePlan(ctx context.Context, c *model.Compiled, opt Options) (*Solution, error) {
	w := planWorkGraph(c)
	defer w.release()
	return w.solveAdapted(ctx, opt, false)
}

// solveAdapted runs the adapted SSB loop on a filled work graph, with the
// per-iteration trace made optional.
func (w *workGraph) solveAdapted(ctx context.Context, opt Options, trace bool) (*Solution, error) {
	wts := opt.weights()
	if !wts.Valid() {
		return nil, dwg.ErrBadWeights
	}
	w.sortByBeta()
	sol := &Solution{Objective: math.Inf(1)}
	var bestEdges []int
	record := func(entry TraceEntry) {
		if trace {
			sol.Trace = append(sol.Trace, entry)
		}
	}

	for iter := 1; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sol.Stats.Iterations = iter
		path, ok := w.minSigmaPath()
		if !ok {
			if n := len(sol.Trace); n > 0 {
				sol.Trace[n-1].Note = "stop: disconnected"
			}
			break
		}
		s, b, bottleneck := w.measures(path)
		obj := wts.Value(s, b)
		entry := TraceEntry{
			Iteration: iter, S: s, B: b, Objective: obj,
			BottleneckColour: bottleneck, ExpandedColour: model.NoSatellite,
		}
		if obj < sol.Objective {
			sol.Objective = obj
			sol.S, sol.B = s, b
			bestEdges = append(bestEdges[:0], path...)
		}
		entry.Candidate = sol.Objective
		if wts.WS*s >= sol.Objective {
			// Any remaining path has S ≥ s, so WS·S alone meets the
			// candidate: optimal.
			entry.Note = "stop: bound"
			record(entry)
			break
		}
		// Eliminate edges whose single β reaches the coloured bottleneck: a
		// path through such an edge has that colour's sum ≥ B already.
		// A second, usually tighter bound applies once a candidate exists:
		// any path through edge e has S ≥ s (the global min-S) and B ≥
		// β(e), so WS·s + WB·β(e) ≥ candidate proves e useless. Take the
		// lower of the two thresholds.
		threshold := b
		if wts.WB > 0 && !opt.ConservativeElimination {
			if byCand := (sol.Objective - wts.WS*s) / wts.WB; byCand < threshold {
				threshold = byCand
			}
		}
		removed := w.eliminate(threshold)
		entry.Removed = removed
		if removed == 0 {
			// The bottleneck colour's B is spread over several of its
			// edges: Figure 9's situation. Expand that colour, or fall
			// back when expansion cannot help (multi-band colour, budget
			// exceeded, or expansion disabled).
			if opt.DisableExpansion || bottleneck == model.NoSatellite ||
				w.expanded[bottleneck] || !w.plan.Contiguous(bottleneck) {
				entry.Note = "fallback"
				record(entry)
				sol.Stats.FellBack = true
				return w.finishWithPareto(ctx, sol, bestEdges, wts)
			}
			created, ok := w.expandColour(bottleneck, opt.maxExpanded())
			if !ok {
				entry.Note = "fallback"
				record(entry)
				sol.Stats.FellBack = true
				return w.finishWithPareto(ctx, sol, bestEdges, wts)
			}
			w.expanded[bottleneck] = true
			sol.Stats.Expansions++
			sol.Stats.SuperEdges += created
			entry.ExpandedColour = bottleneck
		}
		record(entry)
	}
	sol.Stats.FinalEdges = w.enabledCount()
	if math.IsInf(sol.Objective, 1) {
		return nil, ErrUnsolvable
	}
	return w.packageSolution(sol, bestEdges)
}

// expandColour replaces every enabled edge of the (contiguous) colour with
// super-edges representing complete traversals of the colour's face band —
// the Figure-9 expansion. Only Pareto-optimal traversals are materialised:
// a band path whose σ-sum and β-sum are both no better than another's can
// never improve any S+B path through the band, so dominated traversals are
// pruned during a left-to-right dynamic program over the band's faces.
// The super-edges form one bundle. Returns the number of super-edges
// created and false when the band is disconnected or some face's frontier
// exceeds the budget.
func (w *workGraph) expandColour(colour model.SatelliteID, budget int) (int, bool) {
	lo, hi, ok := bandRange(w.plan, colour)
	if !ok {
		return 0, false
	}
	entry, exit := lo, hi+1
	span := exit - entry + 1

	// In-lists: the band's enabled colour edges grouped by head face by a
	// counting sort. Scanning tail faces in order keeps each in-list in
	// (tail face, edge id) order, the order in which a one-at-a-time DP
	// would see their candidates arrive; arrival decides exact ties.
	in := pool.Slice(w.inStart, span+1)
	n := 0
	for id := w.outStart[entry]; id < w.outStart[exit]; id++ {
		if e := &w.edges[id]; !e.disabled && e.colour == colour {
			in[e.to-entry+1]++
			n++
		}
	}
	for t := 1; t <= span; t++ {
		in[t] += in[t-1]
	}
	inEdges := pool.Keep(w.inEdges, n)
	for id := w.outStart[entry]; id < w.outStart[exit]; id++ {
		if e := &w.edges[id]; !e.disabled && e.colour == colour {
			inEdges[in[e.to-entry]] = id
			in[e.to-entry]++
		}
	}
	// Now face t's in-edges are inEdges[in[t-1]:in[t]].
	w.inStart, w.inEdges = in, inEdges

	// The frontier of band face t is arena[fs[t]:fs[t+1]]: the Pareto-
	// minimal (σ, β) prefix traversals entry→t, by ascending σ. Prefixes
	// reference their predecessor by arena index, so the DP never copies
	// edge lists.
	base := len(w.arena)
	fs := pool.Keep(w.faceStart, span+1)
	w.faceStart = fs
	w.arena = append(w.arena, dwg.Point{A: -1, P: -1})
	fs[0], fs[1] = base, base+1
	for t := 1; t < span; t++ {
		heads := w.heads[:0]
		for _, id := range inEdges[in[t-1]:in[t]] {
			e := &w.edges[id]
			f := e.from - entry
			if first, end := fs[f], fs[f+1]; first < end {
				heads = append(heads, dwg.Shift{Pos: first, End: end, A: int32(id), DS: e.sigma, DB: e.beta})
			}
		}
		w.heads = heads
		w.arena = dwg.MergeFrontier(w.arena, heads)
		fs[t+1] = len(w.arena)
		if fs[t+1]-fs[t] > budget {
			w.arena = w.arena[:base]
			return 0, false
		}
	}
	first, end := fs[span-1], fs[span]
	if first == end {
		// Band disconnected (all its edges eliminated): expanding cannot
		// help; signal the caller to fall back.
		w.arena = w.arena[:base]
		return 0, false
	}
	// Disable the band's edges, then bundle one super-edge per traversal.
	for id := w.outStart[entry]; id < w.outStart[exit]; id++ {
		if e := &w.edges[id]; e.colour == colour {
			e.disabled = true
		}
	}
	b := bundle{entry: entry, exit: exit, lo: len(w.edges)}
	for i := first; i < end; i++ {
		p := &w.arena[i]
		w.edges = append(w.edges, workEdge{
			from: entry, to: exit, sigma: p.S, beta: p.B,
			colour: colour, prefix: i,
		})
	}
	b.hi, b.cur = len(w.edges), b.lo
	w.bundleAt[entry] = len(w.bundles)
	w.bundles = append(w.bundles, b)
	return end - first, true
}

// finishWithPareto completes a stalled adapted solve exactly: the Pareto
// DP solves the whole tree under the solve's weights, and its assignment,
// mapped back to a path, replaces the loop's candidate only if its
// objective is strictly lower. Any DP error, the context's included, ends
// the solve.
func (w *workGraph) finishWithPareto(ctx context.Context, sol *Solution, bestEdges []int, wts dwg.Weights) (*Solution, error) {
	res, err := exact.ParetoWeighted(ctx, w.plan.Tree(), wts, 0)
	if err != nil {
		return nil, err
	}
	ids, err := w.encode(res.Assignment)
	if err != nil {
		return nil, err
	}
	sol.Stats.FinalEdges = w.enabledCount()
	s, b, _ := w.measures(ids)
	if obj := wts.Value(s, b); obj < sol.Objective {
		sol.Objective, sol.S, sol.B = obj, s, b
		bestEdges = ids
	}
	return w.packageSolution(sol, bestEdges)
}

// encode is the inverse of Graph.Decode: it maps a feasible assignment to
// the base edges of its S→T path, the edges crossing from a host parent
// into a satellite child. Base edges are grouped by From, so the path comes out
// in order; the result lives in the path buffer.
func (w *workGraph) encode(a *model.Assignment) ([]int, error) {
	t := w.plan.Tree()
	ids, face := w.path[:0], 0
	for id := 0; id < w.outStart[w.faces]; id++ {
		e := &w.edges[id]
		if a.Loc[e.child].IsHost() || !a.Loc[t.Node(e.child).Parent].IsHost() {
			continue
		}
		if e.from != face {
			return nil, fmt.Errorf("assign: cut of the assignment jumps from face %d to face %d", face, e.from)
		}
		ids = append(ids, id)
		face = e.to
	}
	if face != w.faces-1 {
		return nil, fmt.Errorf("assign: cut of the assignment stops at face %d of %d", face, w.faces-1)
	}
	w.path = ids
	return ids, nil
}

func (w *workGraph) packageSolution(sol *Solution, bestEdges []int) (*Solution, error) {
	// Rebuild the assignment from the crossed tree edges directly.
	t := w.plan.Tree()
	asg := model.NewAssignment(t)
	covered := 0
	place := func(child model.NodeID, loc model.Location) {
		lo, hi := t.LeafRange(child)
		covered += hi - lo + 1
		placeSubtree(w.plan, asg, child, loc, w.walk)
		sol.CutChildren = append(sol.CutChildren, child)
	}
	for _, id := range bestEdges {
		e := &w.edges[id]
		loc := model.OnSatellite(e.colour)
		if e.prefix < 0 {
			place(e.child, loc)
			continue
		}
		// A super-edge: walk its traversal's prefix chain back to the
		// band entry. The order does not matter, CutChildren is sorted.
		for i := e.prefix; w.arena[i].A >= 0; i = int(w.arena[i].P) {
			place(w.edges[w.arena[i].A].child, loc)
		}
	}
	if covered != t.SensorCount() {
		return nil, fmt.Errorf("assign: optimal path covers %d of %d leaves", covered, t.SensorCount())
	}
	if err := asg.Validate(t); err != nil {
		return nil, fmt.Errorf("assign: optimal path decodes to infeasible assignment: %w", err)
	}
	slices.Sort(sol.CutChildren)
	sol.Assignment = asg
	sol.Delay = sol.S + sol.B
	return sol, nil
}

// Solve builds the graph for t and runs the adapted SSB solver with default
// options — the package-level convenience entry point.
func Solve(t *model.Tree) (*Solution, error) {
	return Build(t).SolveAdapted(Options{})
}
