package exact

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/eval"
	"repro/internal/model"
)

// Pareto solves the problem exactly by per-region dynamic programming,
// completely independent of the assignment graph:
//
//  1. read the colouring off the compiled plan; the must-host closure
//     contributes a fixed host time;
//  2. for every maximal monochromatic region compute the Pareto frontier of
//     (satellite load, extra host time) over all cuts of that region;
//  3. merge frontiers of regions sharing a colour (Minkowski sum, pruned);
//  4. the optimum is min over candidate bottleneck values B of
//     coreHost + Σ_colours minHost(load ≤ B) + B.
//
// maxFrontier caps each frontier's size (0 means 1<<20) — exceeded only on
// adversarially profiled instances; ErrBudget is returned then.
func Pareto(t *model.Tree, maxFrontier int) (*Result, error) {
	return ParetoWeighted(context.Background(), t, dwg.Default, maxFrontier)
}

// ParetoWeighted is Pareto minimising WS·S + WB·B instead of the delay
// S + B (the zero Weights select dwg.Default), with cancellation: the
// context is checked per region, every few thousand pair sums and every
// 256 bottleneck candidates; on cancellation the returned error is the
// context's. The objective is linear, so the same frontiers serve every
// weighting: step 4 minimises WS·(coreHost + Σ_colours minHost(load ≤ B))
// + WB·B. Result.Delay stays the assignment's end-to-end delay.
//
// Every frontier is a span of one arena of dwg.Point, S the satellite
// load and B the extra host time, built by dwg.MergeFrontier. A point
// with A ≥ 0 sums points A and P; otherwise it sinks the subtree at
// position P, or is a CRU's hosted start when P is -1. Only the chosen
// points are decoded.
func ParetoWeighted(ctx context.Context, t *model.Tree, wts dwg.Weights, maxFrontier int) (*Result, error) {
	wts = core.WeightsOr(wts)
	if !wts.Valid() {
		return nil, dwg.ErrBadWeights
	}
	c := model.Compile(t)
	d := &paretoDP{ctx: ctx, c: c, max: core.IntOr(maxFrontier, 1<<20), at: make([]span, c.Len())}

	// The must-host closure's host time, summed in pre-order; the regions
	// are the other positions whose parent is in the closure (sensors
	// included), taken in pre-order too. The root is a CRU and every leaf
	// a sensor, so there is at least one region.
	coreHost := 0.0
	byColour := make([]span, c.NumSats) // empty for colours with no region
	for _, p := range c.Pre {
		if c.MustHost[p] {
			coreHost += c.HostTime[p]
			continue
		}
		if par := c.Parent[p]; par < 0 || !c.MustHost[par] {
			continue
		}
		k := c.Colour[p]
		f, err := d.region(p)
		if err == nil && byColour[k].lo < byColour[k].hi {
			f, err = d.sum(byColour[k], f)
		}
		if err != nil {
			return nil, err
		}
		byColour[k] = f
	}

	// Candidate bottleneck values are every colour's loads, swept in
	// ascending order so ties between co-optimal candidates go to the
	// smallest bottleneck. A colour's cursor counts its points with load
	// ≤ B, the last of which has its least extra host time under B.
	cur, pick := make([]int32, c.NumSats), make([]int32, c.NumSats)
	best := math.Inf(1)
	for checked := 1; ; checked++ {
		if checked&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		b := math.Inf(1)
		for k, f := range byColour {
			if i := f.lo + cur[k]; i < f.hi {
				b = min(b, d.arena[i].S)
			}
		}
		if math.IsInf(b, 1) {
			break
		}
		total, feasible := wts.Value(coreHost, b), true
		for k, f := range byColour {
			for f.lo+cur[k] < f.hi && d.arena[f.lo+cur[k]].S <= b {
				cur[k]++
			}
			switch {
			case f.lo == f.hi: // no region of this colour
			case cur[k] == 0:
				feasible = false
			default:
				total += wts.WS * d.arena[f.lo+cur[k]-1].B
			}
		}
		if feasible && total < best {
			best = total
			copy(pick, cur)
		}
	}

	// Materialise the assignment from the chosen points.
	loc := make([]model.Location, c.Len())
	c.BaseLocations(loc)
	var stack []int32
	for k, f := range byColour {
		if f.lo == f.hi {
			continue
		}
		stack = append(stack, f.lo+pick[k]-1)
		for len(stack) > 0 {
			pt := d.arena[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if pt.A >= 0 {
				stack = append(stack, pt.A, pt.P)
			} else if pt.P >= 0 {
				c.FillSpan(loc, pt.P, model.OnSatellite(model.SatelliteID(k)))
			}
		}
	}
	asg := model.NewAssignment(t)
	c.StoreAssignment(asg, loc)
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

// span is one frontier: the arena points [lo, hi).
type span struct{ lo, hi int32 }

// paretoDP is one ParetoWeighted solve's frontier arena.
type paretoDP struct {
	ctx   context.Context
	c     *model.Compiled
	max   int
	arena []dwg.Point
	heads []dwg.Shift
	at    []span // position -> its frontier, once its region is walked
	sums  int    // pair sums since the last context check
}

// region computes the frontier of the region rooted at r (r's parent is
// in the must-host closure) over r's span in post order: a sensor can
// only sink; a CRU adds its children's frontiers to its hosted start and
// then takes the option of sinking whole.
func (d *paretoDP) region(r int32) (span, error) {
	if err := d.ctx.Err(); err != nil {
		return span{}, err
	}
	c := d.c
	for q := c.Start[r]; q <= r; q++ {
		sink := dwg.Point{S: c.SubSat[q] + c.UpComm[q], A: -1, P: q}
		if !c.Proc[q] {
			d.at[q] = d.push(sink)
			continue
		}
		f := d.push(dwg.Point{B: c.HostTime[q], A: -1, P: -1})
		for _, ch := range c.Children(q) {
			var err error
			if f, err = d.sum(f, d.at[ch]); err != nil {
				return span{}, err
			}
		}
		// The sink has the least B, 0, so it ends the staircase: it
		// replaces every point whose load is not below its own, unless
		// the last point already costs no host time at no greater load.
		// f is the arena's tail, so this is a truncate-and-append.
		if last := d.arena[f.hi-1]; last.B > 0 || last.S > sink.S {
			for f.hi > f.lo && d.arena[f.hi-1].S >= sink.S {
				f.hi--
			}
			d.arena = d.arena[:f.hi]
			f.hi = d.push(sink).hi
		}
		if int(f.hi-f.lo) > d.max {
			return span{}, ErrBudget
		}
		d.at[q] = f
	}
	return d.at[r], nil
}

// push appends the one-point frontier p.
func (d *paretoDP) push(p dwg.Point) span {
	d.arena = append(d.arena, p)
	n := int32(len(d.arena))
	return span{n - 1, n}
}

// sum appends the Minkowski sum of frontiers x and y: one MergeFrontier
// call with one head per point of the shorter, each shifting the longer.
func (d *paretoDP) sum(x, y span) (span, error) {
	if x.hi-x.lo > y.hi-y.lo {
		x, y = y, x
	}
	if d.sums += int(x.hi-x.lo) * int(y.hi-y.lo); d.sums >= 1<<14 {
		d.sums = 0
		if err := d.ctx.Err(); err != nil {
			return span{}, err
		}
	}
	heads := d.heads[:0]
	for i := x.lo; i < x.hi; i++ {
		p := &d.arena[i]
		heads = append(heads, dwg.Shift{Pos: int(y.lo), End: int(y.hi), A: i, DS: p.S, DB: p.B})
	}
	d.heads = heads
	lo := int32(len(d.arena))
	d.arena = dwg.MergeFrontier(d.arena, heads)
	if f := (span{lo, int32(len(d.arena))}); int(f.hi-f.lo) <= d.max {
		return f, nil
	}
	return span{}, ErrBudget
}
