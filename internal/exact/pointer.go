package exact

import (
	"context"
	"math"

	"repro/internal/eval"
	"repro/internal/model"
)

// BranchAndBoundPointer is the original pointer-walking branch-and-bound:
// per-solve bounds tables built by tree traversal, satellite loads in a
// map, subtree placement by stack walks and incumbents evaluated through
// the pointer evaluator. It is retained as the reference implementation
// the compiled search is parity-tested against (identical incumbents,
// identical node counts) and as the baseline of
// BenchmarkCompiledVsPointer. Semantics match BranchAndBoundFrom exactly,
// per-colour bound included, with the same floating-point operations in
// the same order.
func BranchAndBoundPointer(ctx context.Context, t *model.Tree, maxNodes int, warm *model.Assignment) (*Result, error) {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	res := &Result{Delay: math.Inf(1)}

	// forcedSub[v] = Σ h over the multi-colour CRUs in v's subtree: they
	// can never leave the host, so their host time is a certain future
	// cost as long as v is undecided.
	//
	// pinned[v] marks the CRUs that can never leave the host. For every
	// other node, colour[v] is its subtree's satellite and w[v] a floor on
	// the host time plus colour load its subtree adds once v's parent is
	// hosted: a sensor's uplink; for a CRU the smaller of sinking it whole
	// and hosting it above its children's floors.
	forcedSub := make([]float64, t.Len())
	pinned := make([]bool, t.Len())
	colour := make([]model.SatelliteID, t.Len())
	w := make([]float64, t.Len())
	for _, id := range t.Postorder() {
		n := t.Node(id)
		if n.Kind != model.Processing {
			colour[id] = n.Satellite
			w[id] = n.UpComm
			continue
		}
		sat, mono := t.CorrespondentSatellite(id)
		colour[id] = sat
		if !mono || id == t.Root() {
			pinned[id] = true
			forcedSub[id] = n.HostTime
		} else {
			v := n.HostTime
			for _, c := range n.Children {
				v += w[c]
			}
			if s := t.SubtreeSatTime(id) + n.UpComm; s < v {
				v = s
			}
			w[id] = v
		}
		for _, c := range n.Children {
			forcedSub[id] += forcedSub[c]
		}
	}
	// rem[s] sums w over the pending nodes of colour s; at the root, the
	// unpinned children of pinned CRUs, which are certain to be pushed.
	rem := make([]float64, len(t.Satellites()))
	for _, id := range t.Postorder() {
		if pinned[id] {
			continue
		}
		if id == t.Root() || pinned[t.Node(id).Parent] {
			rem[colour[id]] += w[id]
		}
	}

	seeds := []*model.Assignment{model.Compile(t).TopmostAssignment(), model.NewAssignment(t)}
	if warm != nil {
		seeds = append(seeds, warm.Clone())
	}
	for _, seed := range seeds {
		if seed.Validate(t) != nil {
			continue
		}
		if d := eval.PointerDelay(t, seed); d < res.Delay {
			res.Delay = d
			res.Assignment = seed
		}
	}

	asg := model.NewAssignment(t)
	loads := map[model.SatelliteID]float64{}
	var hostTime float64
	var forcedRemaining = forcedSub[t.Root()]
	budgetHit := false
	var ctxErr error

	maxLoad := func() float64 {
		m := 0.0
		for _, v := range loads {
			if v > m {
				m = v
			}
		}
		return m
	}

	stack := []model.NodeID{t.Root()}
	var rec func()
	rec = func() {
		if budgetHit || ctxErr != nil {
			return
		}
		res.Explored++
		if res.Explored > maxNodes {
			budgetHit = true
			return
		}
		if res.Explored&0xff == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return
			}
		}
		lower := 0.0
		for s, r := range rem {
			if b := loads[model.SatelliteID(s)] + r; b > lower {
				lower = b
			}
		}
		bound := hostTime + forcedRemaining + lower
		if bound >= res.Delay {
			return
		}
		if len(stack) == 0 {
			if d := hostTime + maxLoad(); d < res.Delay {
				res.Delay = d
				res.Assignment = asg.Clone()
			}
			return
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Accumulators are restored by writing saved values back, as in
		// the compiled search.
		forced := forcedRemaining
		forcedRemaining -= forcedSub[id]
		if !pinned[id] {
			old := rem[colour[id]]
			rem[colour[id]] -= w[id]
			defer func() { rem[colour[id]] = old }()
		}
		defer func() {
			stack = append(stack, id)
			forcedRemaining = forced
		}()
		n := t.Node(id)

		if n.Kind == model.SensorKind {
			old := loads[n.Satellite]
			loads[n.Satellite] += n.UpComm
			rec()
			loads[n.Satellite] = old
			return
		}

		sat, sinkable := t.CorrespondentSatellite(id)
		if id == t.Root() {
			sinkable = false
		}
		sink := func() {
			old := loads[sat]
			loads[sat] += t.SubtreeSatTime(id) + n.UpComm
			placeSubtree(t, asg, id, model.OnSatellite(sat))
			rec()
			resetSubtree(t, asg, id)
			loads[sat] = old
		}
		host := func() {
			oldHost, oldForced := hostTime, forcedRemaining
			hostTime += n.HostTime
			asg.Set(id, model.Host)
			stack = append(stack, n.Children...)
			for _, c := range n.Children {
				forcedRemaining += forcedSub[c]
			}
			old := 0.0
			if sinkable {
				old = rem[sat]
				for _, c := range n.Children {
					rem[sat] += w[c]
				}
			}
			rec()
			hostTime, forcedRemaining = oldHost, oldForced
			if sinkable {
				rem[sat] = old
			}
			stack = stack[:len(stack)-len(n.Children)]
		}
		if !sinkable {
			host()
			return
		}
		cur := maxLoad()
		sinkDelta := math.Max(cur, loads[sat]+t.SubtreeSatTime(id)+n.UpComm) - cur
		if sinkDelta <= n.HostTime {
			sink()
			host()
		} else {
			host()
			sink()
		}
	}
	rec()
	if ctxErr != nil {
		return nil, ctxErr
	}
	if budgetHit {
		return nil, ErrBudget
	}
	if math.IsInf(res.Delay, 1) {
		return nil, ErrBudget
	}
	return res, nil
}
