package jobs

import (
	"time"

	"repro"
)

// Features are the instance and queue signals PlanFor decides from.
type Features struct {
	// Nodes is the CRU count (processing + sensors).
	Nodes int
	// Colours is the number of satellites.
	Colours int
	// Warm reports a warm-start hint on the request.
	Warm bool
	// Deadline is the job's remaining time budget (0 = none).
	Deadline time.Duration
	// QueueDepth is the number of jobs waiting behind this one.
	QueueDepth int
	// Algorithm, when non-empty, pins the solver (the planner only fills
	// in budget and portfolio defaults around it).
	Algorithm repro.Algorithm
	// Portfolio reports an explicit portfolio request.
	Portfolio bool
}

// FeaturesOf extracts the planning features of one request.
func FeaturesOf(req Request, queueDepth int) Features {
	f := Features{
		Warm:       req.Warm != nil,
		Deadline:   req.Deadline,
		QueueDepth: queueDepth,
		Algorithm:  req.Algorithm,
		Portfolio:  req.Portfolio,
	}
	if t := req.Tree; t != nil {
		f.Nodes = len(t.Preorder())
		f.Colours = len(t.Satellites())
	}
	return f
}

// Plan is the planner's decision: which algorithm to run, under what
// budget, and whether to race it against a heuristic.
type Plan struct {
	// Algorithm is the primary solver (the exact lane in portfolio mode).
	Algorithm repro.Algorithm
	// Budget caps the primary solver's exploration (0 = its default).
	Budget int
	// Portfolio races Algorithm against Heuristic.
	Portfolio bool
	// Heuristic is the racing lane of portfolio mode.
	Heuristic repro.Algorithm
	// GapThreshold ends the race early once the best incumbent's delay is
	// within this relative distance of the best proven lower bound.
	GapThreshold float64
	// Reason is a one-line explanation for introspection.
	Reason string
}

// The planner's thresholds.
const (
	// smallNodes is the instance size solved exact-with-generous-budget
	// regardless of deadline (branch-and-bound finishes in microseconds
	// there).
	smallNodes = 24
	// rushDeadline is the deadline under which planning skips straight to
	// a heuristic (an exact search would spend its whole budget proving
	// bounds).
	rushDeadline = 10 * time.Millisecond
	// deepQueue is the backlog at which effort is shed onto heuristics
	// even without a tight deadline.
	deepQueue = 32
	// gapThreshold is the portfolio acceptance gap.
	gapThreshold = 0.02
	// parallelNodes is the instance size from which the exact lane runs
	// the branch-and-bound engine at the solve-parallelism width
	// (parallel-bnb, work-stealing above one worker) instead of at width
	// 1: a search that large is the only job a core will see for a
	// while, so saturating the node with one solve beats keeping cores
	// free for queue parallelism.
	parallelNodes = 48
)

// PlanFor is the metareasoning front-end: it trades deadline against
// solution quality by picking the algorithm and budget per instance, in
// the spirit of Zilberstein & Chien's metareasoning layer and HS-CAI's
// search-plus-inference portfolios.
//
// Pinned algorithms are honoured as-is (with a portfolio around them only
// on explicit request), and an explicit portfolio request always races —
// on instances the exact lane wins instantly the race just ends early.
// Otherwise the policy is: small instances solve exactly, rushed or
// backlogged requests run the annealer, deadline-bearing large instances
// race branch-and-bound against a population heuristic, and everything
// else gets the exact solver with an effort budget scaled to the queue.
func PlanFor(f Features) Plan {
	heur := repro.Annealing
	if f.Colours >= 3 && f.Nodes >= smallNodes {
		// Many colours widen the cut space; the genetic population
		// explores it better than a single annealing walk.
		heur = repro.Genetic
	}
	// The exact lane: branch-and-bound at width 1 for mid-size searches,
	// the same engine at the solve-parallelism width once the instance is
	// large enough to dominate a node anyway. Both return the same delay
	// (bit for bit at one worker), so the switch is pure wall-time policy.
	exact := repro.BranchBound
	if f.Nodes >= parallelNodes {
		exact = repro.ParallelBnB
	}

	if f.Algorithm != "" {
		plan := Plan{Algorithm: f.Algorithm, Reason: "algorithm pinned by request"}
		if f.Portfolio {
			plan.Portfolio = true
			plan.Heuristic = heur
			plan.GapThreshold = gapThreshold
			plan.Reason = "portfolio pinned by request"
		}
		return plan
	}

	if f.Portfolio {
		return Plan{
			Algorithm:    exact,
			Portfolio:    true,
			Heuristic:    heur,
			GapThreshold: gapThreshold,
			Reason:       "portfolio requested: racing exact vs heuristic",
		}
	}

	switch {
	case f.Nodes <= smallNodes:
		return Plan{
			Algorithm: repro.BranchBound,
			Budget:    1 << 22,
			Reason:    "small instance: exact branch-and-bound",
		}
	case f.Deadline > 0 && f.Deadline <= rushDeadline:
		return Plan{
			Algorithm: heur,
			Reason:    "deadline too tight for exact search: heuristic only",
		}
	case f.QueueDepth >= deepQueue:
		return Plan{
			Algorithm: heur,
			Reason:    "queue backlog: shedding effort onto heuristic",
		}
	case f.Deadline > 0:
		return Plan{
			Algorithm:    exact,
			Portfolio:    true,
			Heuristic:    heur,
			GapThreshold: gapThreshold,
			Reason:       "large instance under deadline: racing exact vs heuristic",
		}
	default:
		return Plan{
			Algorithm: exact,
			Reason:    "no deadline: exact branch-and-bound",
		}
	}
}
