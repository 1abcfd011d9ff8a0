package assign

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dwg"
	"repro/internal/model"
	"repro/internal/workload"
)

// This file keeps the adapted SSB loop as it ran before band expansions
// became bundles: every super-edge in the out-lists with its crossed
// children copied out, a full elimination scan per round and a Pareto DP
// that inserts one candidate at a time. A stalled reference loop finishes
// with a dominance-pruned label search over the reduced graph, where the
// production loop hands over to the Pareto DP. It is the reference the
// bundled loop is checked against, trace entry for trace entry.

type refEdge struct {
	from, to    int
	sigma, beta float64
	colour      model.SatelliteID
	cutChildren []model.NodeID
	disabled    bool
}

type refGraph struct {
	faces    int
	edges    []refEdge
	out      [][]int
	expanded []bool
}

func newRefGraph(g *Graph) *refGraph {
	r := &refGraph{
		faces:    g.faces,
		out:      make([][]int, g.faces),
		expanded: make([]bool, len(g.tree.Satellites())),
	}
	for _, e := range g.edges {
		r.add(refEdge{from: e.From, to: e.To, sigma: e.Sigma, beta: e.Beta,
			colour: e.Colour, cutChildren: e.CutChildren})
	}
	return r
}

func (r *refGraph) add(e refEdge) int {
	id := len(r.edges)
	r.edges = append(r.edges, e)
	r.out[e.from] = append(r.out[e.from], id)
	return id
}

func (r *refGraph) enabledCount() int {
	n := 0
	for i := range r.edges {
		if !r.edges[i].disabled {
			n++
		}
	}
	return n
}

func (r *refGraph) minSigmaPath() ([]int, bool) {
	dist := make([]float64, r.faces)
	via := make([]int, r.faces)
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = -1
	}
	dist[0] = 0
	for f := 0; f < r.faces; f++ {
		if math.IsInf(dist[f], 1) {
			continue
		}
		for _, id := range r.out[f] {
			e := &r.edges[id]
			if e.disabled {
				continue
			}
			if nd := dist[f] + e.sigma; nd < dist[e.to] {
				dist[e.to] = nd
				via[e.to] = id
			}
		}
	}
	if math.IsInf(dist[r.faces-1], 1) {
		return nil, false
	}
	var ids []int
	for f := r.faces - 1; f != 0; {
		id := via[f]
		ids = append(ids, id)
		f = r.edges[id].from
	}
	slices.Reverse(ids)
	return ids, true
}

func (r *refGraph) measures(ids []int) (s, b float64, bottleneck model.SatelliteID) {
	loads := make([]float64, len(r.expanded))
	for _, id := range ids {
		e := &r.edges[id]
		s += e.sigma
		loads[e.colour] += e.beta
	}
	bottleneck = model.NoSatellite
	for _, id := range ids {
		c := r.edges[id].colour
		if v := loads[c]; v > b || (v == b && (bottleneck == model.NoSatellite || c < bottleneck)) {
			b = v
			bottleneck = c
		}
	}
	return s, b, bottleneck
}

// refSolveAdapted is the reference adapted SSB loop with its trace.
func refSolveAdapted(g *Graph, opt Options) (*Solution, error) {
	wts := opt.weights()
	r := newRefGraph(g)
	sol := &Solution{Objective: math.Inf(1)}
	var bestEdges []int
	for iter := 1; ; iter++ {
		sol.Stats.Iterations = iter
		path, ok := r.minSigmaPath()
		if !ok {
			if n := len(sol.Trace); n > 0 {
				sol.Trace[n-1].Note = "stop: disconnected"
			}
			break
		}
		s, b, bottleneck := r.measures(path)
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
			entry.Note = "stop: bound"
			sol.Trace = append(sol.Trace, entry)
			break
		}
		threshold := b
		if wts.WB > 0 && !opt.ConservativeElimination {
			if byCand := (sol.Objective - wts.WS*s) / wts.WB; byCand < threshold {
				threshold = byCand
			}
		}
		removed := 0
		for id := range r.edges {
			e := &r.edges[id]
			if !e.disabled && e.beta >= threshold {
				e.disabled = true
				removed++
			}
		}
		entry.Removed = removed
		if removed == 0 {
			created, ok := 0, false
			if !opt.DisableExpansion && bottleneck != model.NoSatellite &&
				!r.expanded[bottleneck] && g.plan.Contiguous(bottleneck) {
				created, ok = r.expandColour(g, bottleneck, opt.maxExpanded())
			}
			if !ok {
				entry.Note = "fallback"
				sol.Trace = append(sol.Trace, entry)
				sol.Stats.FellBack = true
				return refFinish(g, r, sol, bestEdges, opt)
			}
			r.expanded[bottleneck] = true
			sol.Stats.Expansions++
			sol.Stats.SuperEdges += created
			entry.ExpandedColour = bottleneck
		}
		sol.Trace = append(sol.Trace, entry)
	}
	sol.Stats.FinalEdges = r.enabledCount()
	if math.IsInf(sol.Objective, 1) {
		return nil, ErrUnsolvable
	}
	return refPackage(g, r, sol, bestEdges)
}

func (r *refGraph) expandColour(g *Graph, colour model.SatelliteID, budget int) (int, bool) {
	lo, hi, ok := bandRange(g.plan, colour)
	if !ok {
		return 0, false
	}
	entry, exit := lo, hi+1
	frontier := make([][]int, exit-entry+1)
	arena := []dwg.Point{{A: -1, P: -1}}
	frontier[0] = append(frontier[0], 0)
	for face := entry; face < exit; face++ {
		cur := frontier[face-entry]
		if len(cur) == 0 {
			continue
		}
		for _, id := range r.out[face] {
			e := &r.edges[id]
			if e.disabled || e.colour != colour || e.to > exit {
				continue
			}
			for _, pi := range cur {
				p := arena[pi]
				cand := dwg.Point{S: p.S + e.sigma, B: p.B + e.beta, A: int32(id), P: int32(pi)}
				kept, added := paretoInsert(arena, frontier[e.to-entry], cand, len(arena))
				if added {
					arena = append(arena, cand)
				}
				frontier[e.to-entry] = kept
				if len(kept) > budget {
					return 0, false
				}
			}
		}
	}
	paths := frontier[exit-entry]
	if len(paths) == 0 {
		return 0, false
	}
	for id := range r.edges {
		e := &r.edges[id]
		if !e.disabled && e.colour == colour {
			e.disabled = true
		}
	}
	for _, pi := range paths {
		var rev []int
		for i := pi; arena[i].A >= 0; i = int(arena[i].P) {
			rev = append(rev, int(arena[i].A))
		}
		var children []model.NodeID
		for i := len(rev) - 1; i >= 0; i-- {
			children = append(children, r.edges[rev[i]].cutChildren...)
		}
		r.add(refEdge{from: entry, to: exit, sigma: arena[pi].S, beta: arena[pi].B,
			colour: colour, cutChildren: children})
	}
	return len(paths), true
}

// refFinish runs the label search on the reference graph, super-edges in
// the out-lists in id order: an exact engine independent of the Pareto DP
// that finishes the production loop.
func refFinish(g *Graph, r *refGraph, sol *Solution, bestEdges []int, opt Options) (*Solution, error) {
	res, err := labelSearch(r, len(r.expanded), opt.weights(), sol.Objective)
	sol.Stats.FinalEdges = r.enabledCount()
	if err == nil && res.objective < sol.Objective {
		sol.Objective = res.objective
		sol.S, sol.B = res.s, res.b
		bestEdges = res.edges
	}
	if math.IsInf(sol.Objective, 1) {
		return nil, ErrUnsolvable
	}
	return refPackage(g, r, sol, bestEdges)
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
// the incumbent candidate.
func labelSearch(w *refGraph, numColours int, wts dwg.Weights, upperBound float64) (labelResult, error) {
	perFace := make([][]label, w.faces)
	perFace[0] = []label{{loads: make([]float64, numColours), via: -1, prev: -1}}

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
		return best, ErrUnsolvable
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
	return best, nil
}

func allLE(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

func refPackage(g *Graph, r *refGraph, sol *Solution, bestEdges []int) (*Solution, error) {
	asg := model.NewAssignment(g.tree)
	for _, id := range bestEdges {
		e := &r.edges[id]
		for _, child := range e.cutChildren {
			placeSubtree(g.plan, asg, child, model.OnSatellite(e.colour), g.treeSigma != nil)
			sol.CutChildren = append(sol.CutChildren, child)
		}
	}
	if err := asg.Validate(g.tree); err != nil {
		return nil, err
	}
	slices.Sort(sol.CutChildren)
	sol.Assignment = asg
	sol.Delay = sol.S + sol.B
	return sol, nil
}

// paretoInsert maintains a Pareto frontier as an index list sorted by
// strictly increasing S (σ) and strictly decreasing B (β). A dominated candidate
// (ties included) is rejected in O(log n); otherwise the (contiguous) run
// of entries the candidate dominates is replaced by candIdx.
func paretoInsert(arena []dwg.Point, list []int, cand dwg.Point, candIdx int) (kept []int, added bool) {
	// First position whose σ exceeds the candidate's.
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if arena[list[mid]].S <= cand.S {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	start := pos
	if pos > 0 {
		prev := arena[list[pos-1]]
		if prev.B <= cand.B {
			return list, false // dominated (σ ≤, β ≤), possibly an exact tie
		}
		if prev.S == cand.S {
			start = pos - 1 // equal σ with worse β: replaced by the candidate
		}
	}
	end := pos
	for end < len(list) && arena[list[end]].B >= cand.B {
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

// sameSolve reports the first difference between two adapted solves,
// comparing floats by their bits.
func sameSolve(got, want *Solution) error {
	bits := math.Float64bits
	if len(got.Trace) != len(want.Trace) {
		return fmt.Errorf("%d trace entries, reference %d", len(got.Trace), len(want.Trace))
	}
	for i, g := range got.Trace {
		w := want.Trace[i]
		if g.Iteration != w.Iteration || bits(g.S) != bits(w.S) || bits(g.B) != bits(w.B) ||
			bits(g.Objective) != bits(w.Objective) || bits(g.Candidate) != bits(w.Candidate) ||
			g.BottleneckColour != w.BottleneckColour || g.Removed != w.Removed ||
			g.ExpandedColour != w.ExpandedColour || g.Note != w.Note {
			return fmt.Errorf("trace entry %d: %+v, reference %+v", i, g, w)
		}
	}
	if got.Stats != want.Stats {
		return fmt.Errorf("stats %+v, reference %+v", got.Stats, want.Stats)
	}
	if !slices.Equal(got.CutChildren, want.CutChildren) {
		return fmt.Errorf("cut children %v, reference %v", got.CutChildren, want.CutChildren)
	}
	if got.Assignment.Key() != want.Assignment.Key() {
		return fmt.Errorf("assignment %s, reference %s", got.Assignment.Key(), want.Assignment.Key())
	}
	if bits(got.S) != bits(want.S) || bits(got.B) != bits(want.B) ||
		bits(got.Objective) != bits(want.Objective) || bits(got.Delay) != bits(want.Delay) {
		return fmt.Errorf("measures S=%v B=%v obj=%v delay=%v, reference S=%v B=%v obj=%v delay=%v",
			got.S, got.B, got.Objective, got.Delay, want.S, want.B, want.Objective, want.Delay)
	}
	return nil
}

// TestAdaptedMatchesReferenceLoop runs the bundled loop and the reference
// loop on random trees of 15–255 CRUs and 2–5 satellites, clustered and
// scattered, under the default and the paper-literal elimination rule
// (and with expansion disabled up to 24 CRUs). Traces, stats, crossed
// children, assignments and delay bits must all be identical.
func TestAdaptedMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sizes := []int{15, 24, 31, 48, 63, 96, 127, 255}
	expansions, fallbacks := 0, 0
	for trial := 0; trial < 24; trial++ {
		n := sizes[trial%len(sizes)]
		spec := workload.DefaultRandomSpec(n, 2+rng.Intn(4))
		spec.Clustered = n > 31 || trial%2 == 0
		tree := workload.Random(rng, spec)
		g := Build(tree)
		opts := []Options{{}, {ConservativeElimination: true}}
		if n <= 24 {
			opts = append(opts, Options{DisableExpansion: true})
		}
		for _, opt := range opts {
			got, err := g.SolveAdapted(opt)
			if err != nil {
				t.Fatalf("trial %d (%d CRUs, %+v): %v", trial, n, opt, err)
			}
			want, err := refSolveAdapted(g, opt)
			if err != nil {
				t.Fatalf("trial %d (%d CRUs, %+v): reference: %v", trial, n, opt, err)
			}
			if err := sameSolve(got, want); err != nil {
				t.Fatalf("trial %d (%d CRUs, %+v): %v", trial, n, opt, err)
			}
			expansions += got.Stats.Expansions
			if got.Stats.FellBack {
				fallbacks++
			}
		}
	}
	if expansions == 0 || fallbacks == 0 {
		t.Errorf("corpus exercised %d expansions and %d fallbacks, want both", expansions, fallbacks)
	}
}

// TestMergeFrontierMatchesParetoInsert checks the merge's tie rules
// against one-at-a-time insertion: small-integer (σ, β) frontiers and
// in-edge shifts make exact ties and equal-σ pairs common. Survivors must
// agree entry for entry, down to which in-edge and prefix they came from.
func TestMergeFrontierMatchesParetoInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		arena := []dwg.Point{{A: -1, P: -1}}
		var heads []dwg.Shift
		for k := rng.Intn(5); k >= 0; k-- {
			// A predecessor frontier built by insertion, so it is a
			// valid one: σ ascending, β strictly descending.
			var list []int
			for c := rng.Intn(7); c >= 0; c-- {
				cand := dwg.Point{S: float64(rng.Intn(6)), B: float64(rng.Intn(6)), P: -1}
				if kept, added := paretoInsert(arena, list, cand, len(arena)); added {
					arena = append(arena, cand)
					list = kept
				}
			}
			first := len(arena)
			for _, i := range list {
				arena = append(arena, arena[i])
			}
			ds, db := float64(rng.Intn(4)), float64(rng.Intn(4))
			heads = append(heads, dwg.Shift{Pos: first, End: len(arena), A: int32(100 + k), DS: ds, DB: db})
		}
		checkMerge(t, arena, heads)
	}
}

// TestMergeFrontierFloatRoundingTies covers ties that appear only after
// the in-edge's shift: prefixes with different σ (and β) whose shifted
// values round to the same float, within one in-edge and across two.
func TestMergeFrontierFloatRoundingTies(t *testing.T) {
	eps := math.Ldexp(1, -60)
	arena := []dwg.Point{
		{A: -1, P: -1},
		// σ 0 and 2⁻⁶⁰ both become 1 after +1; β 1+2⁻⁵² and 1 both
		// become 2 after +1: an exact tie inside one shifted list.
		{S: 0, B: 1 + math.Ldexp(1, -52)},
		{S: eps, B: 1},
		// σ ties after +1, β does not: the lower β must win.
		{S: 2, B: 0.5},
		{S: 2 + 2*eps, B: 0.25},
	}
	if arena[1].S+1 != arena[2].S+1 || arena[1].B+1 != arena[2].B+1 {
		t.Fatal("test values do not round together")
	}
	one := func(edge int32, ds, db float64) dwg.Shift {
		return dwg.Shift{Pos: 1, End: 5, A: edge, DS: ds, DB: db}
	}
	checkMerge(t, arena, []dwg.Shift{one(7, 1, 1)})
	checkMerge(t, arena, []dwg.Shift{one(7, 1, 1), one(8, 1, 1)})
	checkMerge(t, arena, []dwg.Shift{one(7, 1, 1.5), one(8, 1, 1)})
}

// checkMerge runs dwg.MergeFrontier and the insertion reference on the
// same heads and compares the survivors.
func checkMerge(t *testing.T, arena []dwg.Point, heads []dwg.Shift) {
	t.Helper()
	var list []int
	ref := slices.Clone(arena)
	for _, h := range heads {
		for pos := h.Pos; pos < h.End; pos++ {
			cand := dwg.Point{S: arena[pos].S + h.DS, B: arena[pos].B + h.DB, A: h.A, P: int32(pos)}
			if kept, added := paretoInsert(ref, list, cand, len(ref)); added {
				ref = append(ref, cand)
				list = kept
			}
		}
	}
	want := make([]dwg.Point, len(list))
	for i, idx := range list {
		want[i] = ref[idx]
	}
	merged := dwg.MergeFrontier(slices.Clone(arena), slices.Clone(heads))
	if got := merged[len(arena):]; !slices.Equal(got, want) {
		t.Fatalf("merged frontier %+v\ninsertion reference %+v\nheads %+v", got, want, heads)
	}
}
