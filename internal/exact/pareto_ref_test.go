package exact

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/eval"
	"repro/internal/model"
)

// This file keeps pareto-dp as it was before it moved onto the compiled
// plan and dwg.MergeFrontier: it walks the pointer tree, forms every
// pairwise sum of two frontiers, sorts them and copies the crossed
// children per option. Only the names are changed. It is the reference
// TestParetoMatchesReference checks the production DP against.

// refParetoOption is one way to cut a (sub)region: hosting the top part costs
// host extra h; the satellite receives load (processing + uplink of the cut
// edges); cut lists the tree-edge children crossed.
type refParetoOption struct {
	h    float64
	load float64
	cut  []model.NodeID
}

// Pareto solves the problem exactly by per-region dynamic programming,
// completely independent of the assignment graph:
//
//  1. read the colouring off the compiled plan; the must-host closure
//     contributes a fixed host time;
//  2. for every maximal monochromatic region compute the Pareto frontier of
//     (extra host time, satellite load) over all cuts of that region;
//  3. merge frontiers of regions sharing a colour (Minkowski sum, pruned);
//  4. the optimum is min over candidate bottleneck values B of
//     coreHost + Σ_colours minHost(load ≤ B) + B.
//
// maxFrontier caps each frontier's size (0 means 1<<20) — exceeded only on
// adversarially profiled instances; ErrBudget is returned then.
func refPareto(t *model.Tree, maxFrontier int) (*Result, error) {
	return refParetoContext(context.Background(), t, maxFrontier)
}

// refParetoContext is Pareto with cancellation: the context is checked per
// region, per frontier merge, and per bottleneck candidate, so deadlines
// stop adversarially large instances. On cancellation the returned error is
// the context's.
func refParetoContext(ctx context.Context, t *model.Tree, maxFrontier int) (*Result, error) {
	return refParetoWeighted(ctx, t, dwg.Default, maxFrontier)
}

// refParetoWeighted is refParetoContext minimising WS·S + WB·B instead of the
// delay S + B (the zero Weights select dwg.Default). The objective is
// linear, so the same frontiers serve every weighting: step 4 minimises
// WS·(coreHost + Σ_colours minHost(load ≤ B)) + WB·B. Result.Delay stays
// the assignment's end-to-end delay.
func refParetoWeighted(ctx context.Context, t *model.Tree, wts dwg.Weights, maxFrontier int) (*Result, error) {
	wts = core.WeightsOr(wts)
	if !wts.Valid() {
		return nil, dwg.ErrBadWeights
	}
	maxFrontier = core.IntOr(maxFrontier, 1<<20)
	plan := model.Compile(t)

	// The must-host closure's host time, summed in pre-order; the regions
	// are the other positions whose parent is in the closure (sensors
	// included), taken in pre-order too.
	coreHost := 0.0
	byColour := map[model.SatelliteID][]refParetoOption{}
	for _, p := range plan.Pre {
		if plan.MustHost[p] {
			coreHost += plan.HostTime[p]
			continue
		}
		if par := plan.Parent[p]; par < 0 || !plan.MustHost[par] {
			continue
		}
		colour := plan.Colour[p]
		opts, err := refRegionFrontier(ctx, t, plan.Post[p], maxFrontier)
		if err != nil {
			return nil, err
		}
		if existing, ok := byColour[colour]; ok {
			merged, err := refMinkowski(ctx, existing, opts, maxFrontier)
			if err != nil {
				return nil, err
			}
			byColour[colour] = merged
		} else {
			byColour[colour] = opts
		}
	}

	colours := make([]model.SatelliteID, 0, len(byColour))
	for c := range byColour {
		colours = append(colours, c)
	}
	sort.Slice(colours, func(i, j int) bool { return colours[i] < colours[j] })

	if len(colours) == 0 {
		// Degenerate: no regions (tree is all must-host — impossible since
		// sensor edges always form regions, but handle defensively).
		asg := model.NewAssignment(t)
		d, err := eval.Delay(t, asg)
		if err != nil {
			return nil, err
		}
		return &Result{Assignment: asg, Delay: d}, nil
	}

	// Candidate bottleneck values: every achievable per-colour load, in
	// ascending order, so ties between co-optimal candidates always go to
	// the smallest bottleneck and one input gets one answer.
	var candidates []float64
	for _, opts := range byColour {
		for _, o := range opts {
			candidates = append(candidates, o.load)
		}
	}
	slices.Sort(candidates)
	candidates = slices.Compact(candidates)

	best := math.Inf(1)
	var bestChoice map[model.SatelliteID]*refParetoOption
	for checked, b := range candidates {
		if (checked+1)&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		total := wts.Value(coreHost, b)
		choice := map[model.SatelliteID]*refParetoOption{}
		feasible := true
		for _, c := range colours {
			var pick *refParetoOption
			opts := byColour[c]
			for i := range opts {
				if opts[i].load <= b && (pick == nil || opts[i].h < pick.h) {
					pick = &opts[i]
				}
			}
			if pick == nil {
				feasible = false
				break
			}
			total += wts.WS * pick.h
			choice[c] = pick
		}
		if feasible && total < best {
			best = total
			bestChoice = choice
		}
	}
	if bestChoice == nil {
		return nil, fmt.Errorf("exact: no feasible bottleneck candidate (tree has %d colours)", len(colours))
	}

	// Materialise the assignment from the chosen cuts.
	asg := model.NewAssignment(t)
	for c, pick := range bestChoice {
		for _, child := range pick.cut {
			placeSubtree(t, asg, child, model.OnSatellite(c))
		}
	}
	bd, err := eval.Evaluate(t, asg)
	if err != nil {
		return nil, fmt.Errorf("exact: pareto assignment invalid: %w", err)
	}
	// The enumeration bound equals the achieved objective: the chosen B
	// is the max load candidate; the realised max load may be smaller,
	// making the realised objective ≤ bound; both are optimal. The two
	// sum the same terms in different orders, so the check allows
	// rounding relative to the objective's magnitude.
	if v := wts.Value(bd.HostTime, bd.MaxSatLoad); v > best+1e-9*math.Max(1, math.Abs(best)) {
		return nil, fmt.Errorf("exact: pareto bound %v < realised objective %v", best, v)
	}
	return &Result{Assignment: asg, Delay: bd.Delay}, nil
}

// refRegionFrontier computes the Pareto frontier of cuts of the monochromatic
// subtree rooted at v (v's parent is in the must-host closure).
func refRegionFrontier(ctx context.Context, t *model.Tree, v model.NodeID, maxFrontier int) ([]refParetoOption, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := t.Node(v)
	// Option A: cut the edge above v — the whole subtree goes to the
	// satellite: no extra host time, load = subtree satellite time + uplink.
	cutHere := refParetoOption{
		h:    0,
		load: t.SubtreeSatTime(v) + n.UpComm,
		cut:  []model.NodeID{v},
	}
	if n.Kind == model.SensorKind {
		// A sensor cannot be hosted: cutting is the only option.
		return []refParetoOption{cutHere}, nil
	}

	// Option B: host v; combine children frontiers (Minkowski sum).
	combined := []refParetoOption{{h: n.HostTime}}
	for _, c := range n.Children {
		childOpts, err := refRegionFrontier(ctx, t, c, maxFrontier)
		if err != nil {
			return nil, err
		}
		merged, err := refMinkowski(ctx, combined, childOpts, maxFrontier)
		if err != nil {
			return nil, err
		}
		combined = merged
	}
	return refPrune(append(combined, cutHere), maxFrontier)
}

// refMinkowski combines two frontiers by pairwise addition and prunes. The
// product can reach the frontier cap squared on adversarial instances, so
// the context is checked every few thousand pair-sums regardless of how
// the work is distributed across rows.
func refMinkowski(ctx context.Context, a, b []refParetoOption, maxFrontier int) ([]refParetoOption, error) {
	out := make([]refParetoOption, 0, len(a)*len(b))
	sinceCheck := 0
	for i := range a {
		sinceCheck += len(b)
		if sinceCheck >= 1<<14 {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for j := range b {
			cut := make([]model.NodeID, 0, len(a[i].cut)+len(b[j].cut))
			cut = append(cut, a[i].cut...)
			cut = append(cut, b[j].cut...)
			out = append(out, refParetoOption{
				h:    a[i].h + b[j].h,
				load: a[i].load + b[j].load,
				cut:  cut,
			})
		}
	}
	return refPrune(out, maxFrontier)
}

// prune removes dominated options ((h,load) both ≥ another's) and sorts by
// load ascending / h descending.
func refPrune(opts []refParetoOption, maxFrontier int) ([]refParetoOption, error) {
	sort.Slice(opts, func(i, j int) bool {
		if opts[i].load != opts[j].load {
			return opts[i].load < opts[j].load
		}
		return opts[i].h < opts[j].h
	})
	kept := opts[:0]
	bestH := math.Inf(1)
	for _, o := range opts {
		if o.h < bestH {
			kept = append(kept, o)
			bestH = o.h
		}
	}
	if len(kept) > maxFrontier {
		return nil, ErrBudget
	}
	return kept, nil
}
