package assign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/model"
	"repro/internal/pool"
)

// Options tunes the solvers. The zero value selects the paper's defaults:
// the end-to-end delay objective S + B and a generous expansion budget.
type Options struct {
	// Weights of the objective WS·S(P) + WB·B(P). Zero value means
	// dwg.Default (1, 1), the §5 end-to-end delay.
	Weights dwg.Weights

	// MaxExpandedEdges caps the number of super-edges one band expansion
	// may create before the solver falls back to the exact label search.
	// 0 means the default of 200000.
	MaxExpandedEdges int

	// DisableExpansion forces the solver to fall back to the label search
	// as soon as per-edge elimination stalls (used to exercise the
	// fallback path in tests and ablation benches).
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
type workEdge struct {
	from, to    int
	sigma, beta float64
	colour      model.SatelliteID
	cutChildren []model.NodeID
	disabled    bool
}

type workGraph struct {
	faces int
	edges []workEdge
	out   [][]int

	// Reusable buffers for minSigmaPath: the adapted loop calls it once per
	// iteration, and iteration counts scale with the expanded edge count.
	dist []float64
	via  []int

	// expanded marks colours already band-expanded this solve.
	expanded []bool

	// Scratch of expandColour's Pareto DP: the prefix arena and the
	// per-face frontiers, reused across expansions and solves.
	arena    []prefixNode
	frontier [][]int

	// path is minSigmaPath's result buffer (callers copy what they keep);
	// rev and cutArena back the super-edges' reconstruction and crossed-
	// children lists; loads is measures' dense per-colour accumulator.
	path     []int
	rev      []int
	cutArena []model.NodeID
	loads    []float64
}

// workGraphs is the pooled scratch arena of the path solvers: one
// workGraph (mutable edge set, adjacency, DP buffers, expansion bitset)
// is checked out per solve and returned on every exit path, so the
// steady-state adapted-SSB loop allocates only its Solution.
var workGraphs = pool.NewArena(func() *workGraph { return new(workGraph) })

func newWorkGraph(g *Graph) *workGraph {
	w := workGraphs.Get()
	w.faces = g.faces
	w.dist = pool.Keep(w.dist, g.faces)
	w.via = pool.Keep(w.via, g.faces)
	w.expanded = pool.Slice(w.expanded, len(g.tree.Satellites()))
	w.loads = pool.Slice(w.loads, len(g.tree.Satellites()))
	if cap(w.out) < g.faces {
		w.out = make([][]int, g.faces)
	} else {
		w.out = w.out[:g.faces]
		for i := range w.out {
			w.out[i] = w.out[i][:0]
		}
	}
	w.edges = w.edges[:0]
	w.cutArena = w.cutArena[:0]
	for _, e := range g.edges {
		w.add(workEdge{
			from: e.From, to: e.To, sigma: e.Sigma, beta: e.Beta,
			colour: e.Colour, cutChildren: e.CutChildren,
		})
	}
	return w
}

// release returns the workGraph to the arena. Super-edge cutChildren
// slices are dropped with the edge list truncation; the backing arrays
// stay for the next solve.
func (w *workGraph) release() { workGraphs.Put(w) }

func (w *workGraph) add(e workEdge) int {
	id := len(w.edges)
	w.edges = append(w.edges, e)
	w.out[e.from] = append(w.out[e.from], id)
	return id
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
// that the min-S path needs no general shortest-path search.
func (w *workGraph) minSigmaPath() ([]int, bool) {
	dist, via := w.dist, w.via
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = -1
	}
	dist[0] = 0
	for f := 0; f < w.faces; f++ {
		if math.IsInf(dist[f], 1) {
			continue
		}
		for _, id := range w.out[f] {
			e := &w.edges[id]
			if e.disabled {
				continue
			}
			if nd := dist[f] + e.sigma; nd < dist[e.to] {
				dist[e.to] = nd
				via[e.to] = id
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
// the paper's construction does not cover — the solver falls back to the
// exact coloured label search on the already-reduced graph, which is sound
// because eliminated edges cannot carry a path beating the candidate.
func (g *Graph) SolveAdapted(opt Options) (*Solution, error) {
	return g.SolveAdaptedContext(context.Background(), opt)
}

// SolveAdaptedContext is SolveAdapted with cancellation: the context is
// checked once per elimination round and inside the label-search fallback,
// so deadlines stop the solve promptly. On cancellation the returned error
// is the context's.
func (g *Graph) SolveAdaptedContext(ctx context.Context, opt Options) (*Solution, error) {
	return g.solveAdapted(ctx, opt, true)
}

// solveAdapted is SolveAdaptedContext with the per-iteration trace made
// optional: the registry adapter serves solves whose trace nobody reads,
// so it records none.
func (g *Graph) solveAdapted(ctx context.Context, opt Options, trace bool) (*Solution, error) {
	wts := opt.weights()
	if !wts.Valid() {
		return nil, dwg.ErrBadWeights
	}
	w := newWorkGraph(g)
	defer w.release()
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
		removed := 0
		for id := range w.edges {
			e := &w.edges[id]
			if !e.disabled && e.beta >= threshold {
				e.disabled = true
				removed++
			}
		}
		entry.Removed = removed
		if removed == 0 {
			// The bottleneck colour's B is spread over several of its
			// edges: Figure 9's situation. Expand that colour, or fall
			// back when expansion cannot help (multi-band colour, budget
			// exceeded, or expansion disabled).
			if opt.DisableExpansion || bottleneck == model.NoSatellite ||
				w.expanded[bottleneck] || !g.plan.Contiguous(bottleneck) {
				entry.Note = "fallback"
				record(entry)
				sol.Stats.FellBack = true
				return g.finishWithLabelSearch(ctx, w, sol, bestEdges, wts, opt)
			}
			created, ok := w.expandColour(g, bottleneck, opt.maxExpanded())
			if !ok {
				entry.Note = "fallback"
				record(entry)
				sol.Stats.FellBack = true
				return g.finishWithLabelSearch(ctx, w, sol, bestEdges, wts, opt)
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
	return g.packageSolution(w, sol, bestEdges)
}

// expandColour replaces every enabled edge of the (contiguous) colour with
// super-edges representing complete traversals of the colour's face band —
// the Figure-9 expansion. Only Pareto-optimal traversals are materialised:
// a band path whose σ-sum and β-sum are both no better than another's can
// never improve any S+B path through the band, so dominated traversals are
// pruned during a left-to-right dynamic program over the band's faces.
// Returns the number of super-edges created and false when the per-face
// frontier budget is exceeded.
func (w *workGraph) expandColour(g *Graph, colour model.SatelliteID, budget int) (int, bool) {
	lo, hi, ok := g.bandRange(colour)
	if !ok {
		return 0, false
	}
	entry, exit := lo, hi+1

	// frontier[face-entry] = Pareto-minimal (σ, β) prefix traversals
	// entry→face. Prefixes live in an append-only arena and reference
	// their predecessor by index, so the DP never copies edge lists; the
	// final frontier's traversals are reconstructed by walking parent
	// chains. Arena and frontiers are workGraph scratch, reused across
	// expansions.
	span := exit - entry + 1
	if cap(w.frontier) < span {
		w.frontier = make([][]int, span)
	} else {
		w.frontier = w.frontier[:span]
		for i := range w.frontier {
			w.frontier[i] = w.frontier[i][:0]
		}
	}
	arena := append(w.arena[:0], prefixNode{edge: -1, parent: -1})
	w.frontier[0] = append(w.frontier[0], 0)
	for face := entry; face < exit; face++ {
		cur := w.frontier[face-entry]
		if len(cur) == 0 {
			continue
		}
		for _, id := range w.out[face] {
			e := &w.edges[id]
			if e.disabled || e.colour != colour || e.to > exit {
				continue
			}
			for _, pi := range cur {
				p := arena[pi]
				cand := prefixNode{
					sigma:  p.sigma + e.sigma,
					beta:   p.beta + e.beta,
					edge:   id,
					parent: pi,
				}
				candIdx := len(arena)
				kept, added := paretoInsert(arena, w.frontier[e.to-entry], cand, candIdx)
				if added {
					arena = append(arena, cand) // unused when !added; harmless
				}
				w.frontier[e.to-entry] = kept
				if len(kept) > budget {
					w.arena = arena
					return 0, false
				}
			}
		}
	}
	w.arena = arena
	paths := w.frontier[exit-entry]
	if len(paths) == 0 {
		// Band disconnected (all its edges eliminated): expanding cannot
		// help; signal the caller to fall back.
		return 0, false
	}
	// Disable the band's edges, then add one super-edge per traversal.
	for id := range w.edges {
		e := &w.edges[id]
		if !e.disabled && e.colour == colour {
			e.disabled = true
		}
	}
	for _, pi := range paths {
		var se workEdge
		se.from, se.to = entry, exit
		se.colour = colour
		se.sigma, se.beta = arena[pi].sigma, arena[pi].beta
		rev := w.rev[:0]
		for i := pi; arena[i].edge >= 0; i = arena[i].parent {
			rev = append(rev, arena[i].edge)
		}
		w.rev = rev
		// The crossed children live in the workGraph's arena; the slice
		// header pins its own backing even if the arena later grows.
		start := len(w.cutArena)
		for i := len(rev) - 1; i >= 0; i-- {
			w.cutArena = append(w.cutArena, w.edges[rev[i]].cutChildren...)
		}
		se.cutChildren = w.cutArena[start:len(w.cutArena):len(w.cutArena)]
		w.add(se)
	}
	return len(paths), true
}

// finishWithLabelSearch completes a stalled adapted solve exactly: the best
// path in the reduced graph is compared against the candidate found so far
// (sound because eliminated edges cannot be on a better path).
func (g *Graph) finishWithLabelSearch(ctx context.Context, w *workGraph, sol *Solution, bestEdges []int, wts dwg.Weights, opt Options) (*Solution, error) {
	res, labels, err := labelSearch(ctx, w, len(g.tree.Satellites()), wts, sol.Objective)
	sol.Stats.Labels = labels
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	sol.Stats.FinalEdges = w.enabledCount()
	if err == nil && res.objective < sol.Objective {
		sol.Objective = res.objective
		sol.S, sol.B = res.s, res.b
		bestEdges = res.edges
	}
	if math.IsInf(sol.Objective, 1) {
		return nil, ErrUnsolvable
	}
	return g.packageSolution(w, sol, bestEdges)
}

func (g *Graph) packageSolution(w *workGraph, sol *Solution, bestEdges []int) (*Solution, error) {
	// Gather the crossed tree edges and decode through the primary graph's
	// machinery by rebuilding the assignment directly.
	asg := model.NewAssignment(g.tree)
	covered := 0
	for _, id := range bestEdges {
		e := &w.edges[id]
		for _, child := range e.cutChildren {
			lo, hi := g.tree.LeafRange(child)
			covered += hi - lo + 1
			g.placeSubtree(asg, child, model.OnSatellite(e.colour))
			sol.CutChildren = append(sol.CutChildren, child)
		}
	}
	if covered != g.tree.SensorCount() {
		return nil, fmt.Errorf("assign: optimal path covers %d of %d leaves", covered, g.tree.SensorCount())
	}
	if err := asg.Validate(g.tree); err != nil {
		return nil, fmt.Errorf("assign: optimal path decodes to infeasible assignment: %w", err)
	}
	slices.Sort(sol.CutChildren)
	sol.Assignment = asg
	sol.Delay = sol.S + sol.B
	return sol, nil
}

// SolveLabelSearch solves the coloured path problem exactly with a
// dominance-pruned label-correcting sweep over the monotone face order.
// It handles arbitrary (including non-contiguous) colour layouts and is the
// independent reference the adapted solver is validated against.
//
// The search is seeded with the topmost (min-σ) path as the incumbent:
// labels that already reach its objective are pruned, which keeps the
// multi-dimensional Pareto frontiers from exploding on larger instances
// while remaining exact (the incumbent itself is returned when nothing
// beats it).
func (g *Graph) SolveLabelSearch(opt Options) (*Solution, error) {
	return g.SolveLabelSearchContext(context.Background(), opt)
}

// SolveLabelSearchContext is SolveLabelSearch with cancellation: the
// context is checked periodically inside the label sweep. On cancellation
// the returned error is the context's.
func (g *Graph) SolveLabelSearchContext(ctx context.Context, opt Options) (*Solution, error) {
	wts := opt.weights()
	if !wts.Valid() {
		return nil, dwg.ErrBadWeights
	}
	w := newWorkGraph(g)
	defer w.release()
	sol := &Solution{Objective: math.Inf(1)}
	var seedEdges []int
	if path, ok := w.minSigmaPath(); ok {
		s, b, _ := w.measures(path)
		sol.Objective = wts.Value(s, b)
		sol.S, sol.B = s, b
		seedEdges = append(seedEdges, path...)
	}
	res, labels, err := labelSearch(ctx, w, len(g.tree.Satellites()), wts, sol.Objective)
	sol.Stats.Labels = labels
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	sol.Stats.FinalEdges = w.enabledCount()
	switch {
	case err == nil && res.objective < sol.Objective:
		sol.Objective = res.objective
		sol.S, sol.B = res.s, res.b
		seedEdges = res.edges
	case err != nil && seedEdges == nil:
		return nil, err // no incumbent and no path: genuinely unsolvable
	}
	return g.packageSolution(w, sol, seedEdges)
}

type labelResult struct {
	edges     []int
	s, b      float64
	objective float64
}

type label struct {
	s     float64
	loads []float64
	via   int // edge id taken to reach this label
	prev  int // index of predecessor label in the per-face list of the from-face
}

// labelSearch sweeps faces left to right maintaining Pareto-minimal labels
// (S, per-colour loads). upperBound prunes labels that already cannot beat
// the incumbent candidate. The context is checked every checkEvery explored
// labels so runaway sweeps stop at deadlines.
func labelSearch(ctx context.Context, w *workGraph, numColours int, wts dwg.Weights, upperBound float64) (labelResult, int, error) {
	const checkEvery = 1024
	perFace := make([][]label, w.faces)
	perFace[0] = []label{{loads: make([]float64, numColours), via: -1, prev: -1}}
	explored := 0

	dominated := func(ls []label, cand label) bool {
		for i := range ls {
			l := &ls[i]
			if l.s > cand.s {
				continue
			}
			ok := true
			for c := range l.loads {
				if l.loads[c] > cand.loads[c] {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}

	for f := 0; f < w.faces-1; f++ {
		for li := 0; li < len(perFace[f]); li++ {
			explored++
			if explored%checkEvery == 0 {
				if err := ctx.Err(); err != nil {
					return labelResult{}, explored, err
				}
			}
			// Copy the label: perFace[f] may grow while iterating (it
			// cannot — edges go strictly forward — but keep index safety).
			src := perFace[f][li]
			for _, id := range w.out[f] {
				e := &w.edges[id]
				if e.disabled {
					continue
				}
				next := label{
					s:     src.s + e.sigma,
					loads: append([]float64(nil), src.loads...),
					via:   id,
					prev:  li,
				}
				if int(e.colour) >= 0 && int(e.colour) < numColours {
					next.loads[e.colour] += e.beta
				}
				maxLoad := 0.0
				for _, v := range next.loads {
					if v > maxLoad {
						maxLoad = v
					}
				}
				if wts.Value(next.s, maxLoad) >= upperBound {
					continue // cannot beat the incumbent
				}
				if dominated(perFace[e.to], next) {
					continue
				}
				// Drop labels the newcomer dominates.
				kept := perFace[e.to][:0]
				for _, old := range perFace[e.to] {
					if next.s <= old.s && allLE(next.loads, old.loads) {
						continue
					}
					kept = append(kept, old)
				}
				perFace[e.to] = append(kept, next)
			}
		}
	}

	best := labelResult{objective: math.Inf(1)}
	bestIdx := -1
	final := perFace[w.faces-1]
	for i := range final {
		maxLoad := 0.0
		for _, v := range final[i].loads {
			if v > maxLoad {
				maxLoad = v
			}
		}
		if obj := wts.Value(final[i].s, maxLoad); obj < best.objective {
			best.objective = obj
			best.s = final[i].s
			best.b = maxLoad
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return best, explored, ErrUnsolvable
	}
	// Reconstruct the edge list by walking prev links.
	var edges []int
	cur := final[bestIdx]
	for cur.via >= 0 {
		edges = append(edges, cur.via)
		from := w.edges[cur.via].from
		cur = perFace[from][cur.prev]
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	best.edges = edges
	return best, explored, nil
}

// paretoInsert maintains a Pareto frontier as an index list sorted by
// strictly increasing σ and strictly decreasing β. A dominated candidate
// (ties included) is rejected in O(log n); otherwise the (contiguous) run
// of entries the candidate dominates is replaced by candIdx.
func paretoInsert(arena []prefixNode, list []int, cand prefixNode, candIdx int) (kept []int, added bool) {
	// First position whose σ exceeds the candidate's.
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if arena[list[mid]].sigma <= cand.sigma {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	start := pos
	if pos > 0 {
		prev := arena[list[pos-1]]
		if prev.beta <= cand.beta {
			return list, false // dominated (σ ≤, β ≤), possibly an exact tie
		}
		if prev.sigma == cand.sigma {
			start = pos - 1 // equal σ with worse β: replaced by the candidate
		}
	}
	end := pos
	for end < len(list) && arena[list[end]].beta >= cand.beta {
		end++ // σ ≥ and β ≥: dominated by the candidate
	}
	if removed := end - start; removed > 0 {
		list[start] = candIdx
		n := copy(list[start+1:], list[end:])
		return list[: start+1+n : cap(list)], true
	}
	list = append(list, 0)
	copy(list[start+1:], list[start:len(list)-1])
	list[start] = candIdx
	return list, true
}

// prefixNode is an arena entry of expandColour's Pareto DP: a traversal
// prefix ending with `edge`, extending the prefix at `parent`.
type prefixNode struct {
	sigma, beta float64
	edge        int
	parent      int
}

func allLE(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Solve builds the graph for t and runs the adapted SSB solver with default
// options — the package-level convenience entry point.
func Solve(t *model.Tree) (*Solution, error) {
	return Build(t).SolveAdapted(Options{})
}
