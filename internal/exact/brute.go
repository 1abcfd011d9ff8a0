package exact

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/pool"
)

// Result is an exact optimum with search statistics.
type Result struct {
	Assignment *model.Assignment
	Delay      float64
	Explored   int // assignments (BruteForce) or search nodes (BranchAndBound) visited

	// Partial marks a best-effort branch-and-bound result: the budget or
	// deadline expired and BnBOptions.BestEffort asked for the incumbent
	// instead of an error. Optimality is not proven.
	Partial bool
	// LowerBound is a valid floor on the optimal delay. While a
	// branch-and-bound search runs it is the search's bound at the root —
	// the forced host time plus the largest per-colour floor of what the
	// undecided subtrees must still add; once an exact search completes
	// it is the proven optimum (== Delay). Zero when the solver computes
	// none.
	LowerBound float64

	// Pruned counts the branches a branch-and-bound search cut by its
	// bound.
	Pruned int
}

// ErrBudget is returned when a solver exceeds its exploration budget. It
// is the core registry's structured sentinel, so errors.Is matches it under
// either name.
var ErrBudget = core.ErrBudgetExceeded

// BruteForce enumerates all feasible assignments: walking the tree top-down,
// every CRU whose subtree is monochromatic may either take its whole subtree
// to the correspondent satellite or stay on the host and let each child
// decide. The enumeration runs on the compiled plan — positions on the
// stack, span fills for subtree sinks, and the flat zero-allocation
// kernel for each complete assignment (enumerated assignments are
// feasible by construction, so no per-leaf validation walk is needed).
// maxExplored caps the enumeration (0 means 2^22).
func BruteForce(t *model.Tree, maxExplored int) (*Result, error) {
	return BruteForceContext(context.Background(), t, maxExplored)
}

// BruteForceContext is BruteForce with cancellation: the context is checked
// every few hundred enumerated assignments, so deadlines stop the
// exponential search promptly. On cancellation the returned error is the
// context's.
func BruteForceContext(ctx context.Context, t *model.Tree, maxExplored int) (*Result, error) {
	maxExplored = core.IntOr(maxExplored, 1<<22)
	c := model.Compile(t)
	n := c.Len()
	res := &Result{Delay: math.Inf(1)}

	sc := bnbScratches.Get()
	defer bnbScratches.Put(sc)
	fr := eval.GetFrame()
	defer eval.PutFrame(fr)
	sc.loc = pool.Keep(sc.loc, n)
	sc.best = pool.Keep(sc.best, n)
	loc := sc.loc
	c.BaseLocations(loc)
	found := false

	// Explicit shared stack with push/pop discipline: passing re-sliced
	// frontiers into the recursion would let a deeper append clobber the
	// caller's pending entries through the shared backing array.
	stack := append(sc.stack[:0], c.RootPos)
	var rec func() error
	rec = func() error {
		if len(stack) == 0 {
			res.Explored++
			if res.Explored > maxExplored {
				return ErrBudget
			}
			if res.Explored&0xff == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if d := eval.FlatDelay(c, loc, fr); d < res.Delay {
				res.Delay = d
				copy(sc.best, loc)
				found = true
			}
			return nil
		}
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		defer func() { stack = append(stack, p) }() // restore for the caller

		if !c.Proc[p] {
			// Sensors are pinned; nothing to decide.
			return rec()
		}

		// Choice 1: p stays on the host, children decide independently.
		kids := c.Children(p)
		loc[p] = model.Host
		stack = append(stack, kids...)
		err := rec()
		stack = stack[:len(stack)-len(kids)]
		if err != nil {
			return err
		}

		// Choice 2: p (and its whole subtree) moves to its correspondent
		// satellite — only feasible for monochromatic non-root subtrees.
		if p != c.RootPos {
			if sat := c.Colour[p]; sat != model.NoSatellite {
				c.FillSpan(loc, p, model.OnSatellite(sat))
				if err := rec(); err != nil {
					return err
				}
				// Restore: host for CRUs (the next branch will overwrite).
				c.FillSpan(loc, p, model.Host)
			}
		}
		return nil
	}
	err := rec()
	sc.stack = stack[:0]
	if err != nil {
		return nil, err
	}
	if found {
		asg := model.NewAssignment(t)
		c.StoreAssignment(asg, sc.best)
		res.Assignment = asg
		// A finished enumeration proves its own answer, exactly like a
		// completed branch-and-bound: pin the floor to the optimum so
		// anytime consumers see a closed gap from the Result itself.
		res.LowerBound = res.Delay
	}
	return res, nil
}

func placeSubtree(t *model.Tree, asg *model.Assignment, root model.NodeID, loc model.Location) {
	stack := []model.NodeID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.Node(id).Kind == model.Processing {
			asg.Set(id, loc)
		}
		stack = append(stack, t.Node(id).Children...)
	}
}

func resetSubtree(t *model.Tree, asg *model.Assignment, root model.NodeID) {
	placeSubtree(t, asg, root, model.Host)
}

// CountAssignments returns the number of feasible assignments of t without
// materialising them — the search-space size the crbench experiments report.
func CountAssignments(t *model.Tree) float64 {
	// ways(v) = number of cuts of the subtree at v, counting "v goes to its
	// satellite" (if monochromatic) plus the product of children's ways
	// when v stays hosted. Sensors contribute 1.
	var ways func(id model.NodeID) float64
	ways = func(id model.NodeID) float64 {
		n := t.Node(id)
		if n.Kind == model.SensorKind {
			return 1
		}
		prod := 1.0
		for _, c := range n.Children {
			prod *= ways(c)
		}
		if _, mono := t.CorrespondentSatellite(id); mono && id != t.Root() {
			prod++
		}
		return prod
	}
	return ways(t.Root())
}
