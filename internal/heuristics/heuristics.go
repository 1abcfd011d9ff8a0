package heuristics

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/pool"
)

// Result is a heuristic solution: a feasible assignment, its delay and a
// work counter (moves, iterations or generations depending on the solver).
type Result struct {
	Assignment *model.Assignment
	Delay      float64
	Work       int

	// Partial marks a best-effort result: the deadline expired mid-walk
	// and BestEffort asked for the best-so-far instead of an error.
	Partial bool
}

// AllHost returns the trivial everything-on-host baseline.
func AllHost(t *model.Tree) *Result {
	asg := model.NewAssignment(t)
	return &Result{Assignment: asg, Delay: eval.MustDelay(t, asg)}
}

// MaxDistribution returns the topmost-cut baseline: only the must-host
// closure stays on the host, every region runs on its satellite.
func MaxDistribution(t *model.Tree) *Result {
	asg := model.Compile(t).TopmostAssignment()
	return &Result{Assignment: asg, Delay: eval.MustDelay(t, asg)}
}

// Start selects the initial assignment of Greedy and Anneal.
type Start int

const (
	// FromHost starts with everything on the host and mostly sinks.
	FromHost Start = iota
	// FromTopmost starts maximally distributed and mostly lifts.
	FromTopmost
)

// cutMove is one legal sink/lift move in position space: set position pos
// to location to. Both move kinds touch exactly one position (a sink
// requires the children to already sit on the satellite; a lift leaves
// them there), which is what makes the neighbourhood scan allocation-free.
type cutMove struct {
	pos int32
	to  model.Location
}

// moveState is the pooled working set of the local-search heuristics: the
// current, best and scratch location vectors plus the move buffer, all in
// post-order position space against the compiled plan.
type moveState struct {
	loc, best []model.Location
	moves     []cutMove
}

var moveStates = pool.NewArena(func() *moveState { return new(moveState) })

// appendMoves appends the legal sink/lift neighbourhood of loc, in
// pre-order of the moved CRU (the same enumeration order as the pointer
// implementation's legalMoves, so tie-breaks and seeded random walks
// coincide):
//
//   - sink(v): v is hosted, non-root, its subtree is monochromatic, its
//     parent is hosted and every processing child of v already sits on
//     v's correspondent satellite → move v to the satellite;
//   - lift(v): v is on a satellite and its parent is hosted → move v (and
//     only v; its children stay) back to the host, which stays feasible
//     because the host set remains upward-closed.
func appendMoves(out []cutMove, c *model.Compiled, loc []model.Location) []cutMove {
	for _, p := range c.Pre {
		if !c.Proc[p] {
			continue
		}
		if loc[p].IsHost() {
			if p == c.RootPos {
				continue
			}
			sat := c.Colour[p]
			if sat == model.NoSatellite {
				continue
			}
			if !loc[c.Parent[p]].IsHost() {
				continue
			}
			ok := true
			for _, ch := range c.Children(p) {
				if c.Proc[ch] {
					if s, onSat := loc[ch].Satellite(); !onSat || s != sat {
						ok = false
						break
					}
				}
			}
			if ok {
				out = append(out, cutMove{pos: p, to: model.OnSatellite(sat)})
			}
		} else if par := c.Parent[p]; par >= 0 && loc[par].IsHost() {
			out = append(out, cutMove{pos: p, to: model.Host})
		}
	}
	return out
}

// Greedy hill-climbs from the given start, applying the single best
// sink/lift move until no move improves the delay. The result is a local
// optimum of the move neighbourhood.
func Greedy(t *model.Tree, start Start) *Result {
	r, _ := GreedyContext(context.Background(), t, start)
	return r
}

// GreedyContext is Greedy with cancellation: the context is checked once
// per hill-climbing round. On cancellation the returned error is the
// context's and the result is nil.
func GreedyContext(ctx context.Context, t *model.Tree, start Start) (*Result, error) {
	return GreedyFromContext(ctx, t, startAssignment(t, start))
}

// GreedyFromContext hill-climbs from an explicit feasible assignment
// instead of one of the canned Start points — the warm-start entry: the
// incremental engine passes the previous revision's solution projected
// onto the mutated tree, so after a small drift the climb starts next to
// the optimum instead of at a cold baseline. The caller's assignment is
// never modified: the climb runs on a pooled position vector against the
// compiled plan, evaluating each candidate move with the flat kernel —
// no cloning, no maps, no per-move allocation.
func GreedyFromContext(ctx context.Context, t *model.Tree, from *model.Assignment) (*Result, error) {
	c := model.Compile(t)
	st := moveStates.Get()
	defer moveStates.Put(st)
	fr := eval.GetFrame()
	defer eval.PutFrame(fr)

	st.loc = pool.Keep(st.loc, c.Len())
	c.LoadLocations(st.loc, from)
	delay := eval.FlatDelay(c, st.loc, fr)
	moves := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestDelta := -1e-12
		bestPos := int32(-1)
		var bestTo model.Location
		var bestDelay float64
		st.moves = appendMoves(st.moves[:0], c, st.loc)
		for _, mv := range st.moves {
			old := st.loc[mv.pos]
			st.loc[mv.pos] = mv.to
			d := eval.FlatDelay(c, st.loc, fr)
			st.loc[mv.pos] = old
			if delta := d - delay; delta < bestDelta {
				bestDelta, bestPos, bestTo, bestDelay = delta, mv.pos, mv.to, d
			}
		}
		if bestPos < 0 {
			break
		}
		st.loc[bestPos] = bestTo
		delay = bestDelay
		moves++
	}
	asg := model.NewAssignment(t)
	c.StoreAssignment(asg, st.loc)
	return &Result{Assignment: asg, Delay: delay, Work: moves}, nil
}

// AnnealConfig tunes Anneal. Zero values select the defaults noted below.
type AnnealConfig struct {
	Seed     int64
	Steps    int     // default 2000
	StartT   float64 // default: 10% of the all-host delay
	CoolRate float64 // geometric factor per step, default 0.995
	Start    Start
	// Init, when non-nil, overrides Start with an explicit feasible
	// assignment to anneal from (the warm-start hook). It is never
	// modified.
	Init *model.Assignment

	// OnImprove, when set, receives every improvement of the walk's best
	// assignment (including the starting point) with a fresh clone the
	// callback may keep. Heuristics have no bound proof, so
	// Incumbent.LowerBound is 0.
	OnImprove func(core.Incumbent)
	// BestEffort returns the best-so-far with Result.Partial set instead
	// of a context error when the deadline expires mid-walk.
	BestEffort bool
}

// Anneal runs simulated annealing over the sink/lift move neighbourhood.
// Deterministic for a fixed seed.
func Anneal(t *model.Tree, cfg AnnealConfig) *Result {
	r, _ := AnnealContext(context.Background(), t, cfg)
	return r
}

// AnnealContext is Anneal with cancellation: the context is checked every
// few annealing steps. On cancellation the returned error is the context's
// and the result is nil. The walk runs in position space with flat
// evaluation, like GreedyFromContext; accepted and rejected moves are
// single-position writes, so steps allocate nothing.
func AnnealContext(ctx context.Context, t *model.Tree, cfg AnnealConfig) (*Result, error) {
	steps := core.IntOr(cfg.Steps, 2000)
	cool := cfg.CoolRate
	if cool <= 0 || cool >= 1 {
		cool = 0.995
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := model.Compile(t)
	st := moveStates.Get()
	defer moveStates.Put(st)
	fr := eval.GetFrame()
	defer eval.PutFrame(fr)

	st.loc = pool.Keep(st.loc, c.Len())
	st.best = pool.Keep(st.best, c.Len())
	if cfg.Init != nil {
		c.LoadLocations(st.loc, cfg.Init)
	} else if cfg.Start == FromTopmost {
		c.TopmostLocations(st.loc)
	} else {
		c.BaseLocations(st.loc)
	}
	delay := eval.FlatDelay(c, st.loc, fr)
	temp := cfg.StartT
	if temp <= 0 {
		c.BaseLocations(st.best) // scratch use; overwritten below
		temp = 0.1 * (eval.FlatDelay(c, st.best, fr) + 1)
	}

	copy(st.best, st.loc)
	bestDelay := delay
	stream := func(work int) {
		if cfg.OnImprove == nil {
			return
		}
		asg := model.NewAssignment(t)
		c.StoreAssignment(asg, st.best)
		cfg.OnImprove(core.Incumbent{Assignment: asg, Delay: bestDelay, Work: work})
	}
	stream(0)
	partial := false
	for step := 0; step < steps; step++ {
		if step&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				if !cfg.BestEffort {
					return nil, err
				}
				partial = true
				break
			}
		}
		st.moves = appendMoves(st.moves[:0], c, st.loc)
		if len(st.moves) == 0 {
			break
		}
		mv := st.moves[rng.Intn(len(st.moves))]
		old := st.loc[mv.pos]
		st.loc[mv.pos] = mv.to
		d := eval.FlatDelay(c, st.loc, fr)
		if delta := d - delay; delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			delay = d
			if delay < bestDelay {
				copy(st.best, st.loc)
				bestDelay = delay
				stream(step + 1)
			}
		} else {
			st.loc[mv.pos] = old
		}
		temp *= cool
	}
	asg := model.NewAssignment(t)
	c.StoreAssignment(asg, st.best)
	return &Result{Assignment: asg, Delay: bestDelay, Work: steps, Partial: partial}, nil
}

func startAssignment(t *model.Tree, s Start) *model.Assignment {
	if s == FromTopmost {
		return model.Compile(t).TopmostAssignment()
	}
	return model.NewAssignment(t)
}
