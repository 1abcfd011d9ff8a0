package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dwg"
	"repro/internal/eval"
	"repro/internal/model"
)

// Algorithm names a solver.
type Algorithm string

// Names of the built-in algorithms. The constants are only names: dispatch
// is by registry lookup, and external packages may Register further
// algorithms under new names without touching this package.
const (
	// AdaptedSSB is the paper's §5.4 algorithm: coloured assignment graph +
	// SSB path search with expansion. Exact; the default.
	AdaptedSSB Algorithm = "adapted-ssb"
	// ParetoDP is the exact per-region Pareto dynamic program.
	ParetoDP Algorithm = "pareto-dp"
	// BruteForce enumerates every feasible assignment. Exact, exponential.
	BruteForce Algorithm = "brute-force"
	// BranchBound is the §6 future-work branch-and-bound, made exact.
	BranchBound Algorithm = "branch-and-bound"
	// AllHost keeps every CRU on the host (baseline).
	AllHost Algorithm = "all-host"
	// MaxDistribution sinks every region to its satellite (baseline).
	MaxDistribution Algorithm = "max-distribution"
	// GreedyHost hill-climbs from the all-host assignment.
	GreedyHost Algorithm = "greedy-host"
	// GreedyTop hill-climbs from the maximal distribution.
	GreedyTop Algorithm = "greedy-top"
	// Annealing is simulated annealing over the cut-move neighbourhood.
	Annealing Algorithm = "annealing"
	// Genetic is the §6 future-work genetic algorithm.
	Genetic Algorithm = "genetic"
	// ParallelBnB is the work-stealing parallel branch-and-bound: exact,
	// and saturating Request.Parallelism cores on one solve.
	ParallelBnB Algorithm = "parallel-bnb"
	// AnnealingPack runs a pack of independent annealing walks in
	// lockstep, one move per walk per step. The pack width is pinned in its
	// config, not taken from Request.Parallelism: width changes the answer,
	// and the parallelism hint is excluded from cache identity on the
	// promise it never does.
	AnnealingPack Algorithm = "annealing-pack"
)

// Request describes one solve.
type Request struct {
	Tree      *model.Tree
	Algorithm Algorithm   // empty selects AdaptedSSB
	Weights   dwg.Weights // zero selects the S+B delay objective
	Seed      int64       // randomised heuristics only
	Budget    int         // node/frontier budget for exact searches (0 = default)

	// Parallelism bounds the intra-solve worker count of solvers whose
	// capabilities declare Parallel: 0 selects the solver's default
	// (GOMAXPROCS for the work-stealing branch-and-bound). It is
	// advisory and never changes an exact solver's answer — only how many
	// cores the search saturates — so the serving layers exclude it from
	// the cache identity; solvers without the capability ignore it.
	Parallelism int

	// Plan is the compiled flat-tree plan of Tree. Leave nil to have
	// SolveContext resolve it (Compile memoises the plan on the tree, so
	// the serving layers — Solver, Service, Session — compile each
	// revision once and every dispatch across the cache, batch and
	// session paths reuses the same arrays).
	Plan *model.Compiled

	// Warm is an optional prior assignment to seed the search from —
	// typically the previous revision's outcome projected onto a mutated
	// tree by the incremental engine. It is advisory: solvers whose
	// capabilities declare WarmStart use it (exact ones only to prune, so
	// their answer is unchanged; heuristics as the starting point of
	// their walk), all others ignore it, and hints that are not feasible
	// for Tree are dropped before dispatch.
	Warm *model.Assignment

	// OnIncumbent, when set, is invoked by anytime solvers (capability
	// Anytime) each time they improve their incumbent. The callback runs
	// synchronously on the solver goroutine, so it must be fast and must
	// not retain Incumbent.Assignment beyond the call unless the solver
	// documents it as caller-owned (all built-in anytime solvers pass a
	// fresh clone). Non-anytime solvers ignore it.
	OnIncumbent func(Incumbent)

	// BestEffort asks anytime solvers to return their best-so-far
	// assignment with Finding.Partial set instead of failing with
	// ErrBudgetExceeded / a context error when the budget or deadline
	// expires after at least one feasible incumbent exists. Solvers
	// without the Anytime capability ignore it.
	BestEffort bool
}

// Incumbent is one improving solution streamed by an anytime solver.
type Incumbent struct {
	// Assignment is a caller-owned clone of the incumbent assignment.
	Assignment *model.Assignment
	// Delay is the incumbent's objective value.
	Delay float64
	// LowerBound is the solver's current proof floor on the optimum
	// (0 when the solver has none — heuristics stream 0).
	LowerBound float64
	// Work is the solver's effort counter at the time of the improvement.
	Work int
}

// Gap reports the relative bound gap (Delay-LowerBound)/LowerBound, or
// -1 when no lower bound is available.
func (inc Incumbent) Gap() float64 {
	if inc.LowerBound <= 0 {
		return -1
	}
	return (inc.Delay - inc.LowerBound) / inc.LowerBound
}

// SearchStats reports how a graph-based solve went.
type SearchStats struct {
	Iterations int  // elimination rounds (adapted SSB)
	Expansions int  // band expansions performed
	SuperEdges int  // super-edges created by expansions
	FinalEdges int  // enabled edges at termination — the |E'| of §5.4
	FellBack   bool // adapted SSB handed over to the Pareto DP
}

// Outcome is a uniform solver result.
type Outcome struct {
	Algorithm  Algorithm
	Assignment *model.Assignment
	Breakdown  *eval.Breakdown
	Delay      float64
	Exact      bool
	Elapsed    time.Duration // solve plus evaluation wall time
	Work       int           // algorithm-specific effort counter
	Stats      *SearchStats  // populated by the graph-based solvers

	// Partial marks a best-effort result cut short by budget or deadline;
	// Exact is false for partial results even from exact solvers.
	Partial bool
	// LowerBound is the solver's proof floor on the optimal delay
	// (0 = none). A completed exact solve reports LowerBound == Delay.
	LowerBound float64

	// Pruned counts the branches a branch-and-bound search cut by its
	// bound (zero elsewhere); /debug/vars aggregates it fleet-wide.
	Pruned int

	// BoundHits and BoundMisses are always 0: bound memoization was
	// removed; kept until the benchmark stops reading it.
	BoundHits   int
	BoundMisses int

	// DP marks an answer the Pareto DP proved (pareto-dp, or a
	// branch-and-bound that needed no search): Work then counts the
	// frontier points the DP built, not search nodes.
	DP bool
}

// SolveContext dispatches the request through the algorithm registry. The
// context cancels the solver's hot loops: on cancellation the returned
// error matches ErrCanceled as well as the context cause.
func SolveContext(ctx context.Context, req Request) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Tree == nil {
		return nil, fmt.Errorf("%w: nil tree", ErrInvalidTree)
	}
	alg := req.Algorithm
	if alg == "" {
		alg = AdaptedSSB
	}
	caps, fn, ok := Lookup(alg)
	if !ok {
		return nil, &UnknownAlgorithmError{Name: alg, Known: Algorithms()}
	}
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Algorithm: alg, Cause: err}
	}
	if req.Plan == nil || req.Plan.Tree() != req.Tree {
		req.Plan = model.Compile(req.Tree)
	}
	// Warm hints are advisory: drop them for solvers that cannot consume
	// them and for hints that are not feasible on this tree (a projection
	// bug or a caller passing an assignment of another revision must
	// degrade to a cold solve, never corrupt the search).
	if req.Warm != nil && (!caps.WarmStart || req.Warm.Validate(req.Tree) != nil) {
		req.Warm = nil
	}
	// Parallelism is likewise advisory: zero it for solvers that do not
	// declare the capability so their SolveFuncs never see a stray hint.
	if !caps.Parallel {
		req.Parallelism = 0
	}

	start := time.Now()
	finding, err := fn(ctx, req)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, &CanceledError{Algorithm: alg, Cause: err}
		}
		return nil, err
	}

	out := &Outcome{
		Algorithm:  alg,
		Assignment: finding.Assignment,
		Exact:      caps.Exact && !finding.Partial,
		Work:       finding.Work,
		Stats:      finding.Stats,
		Partial:    finding.Partial,
		LowerBound: finding.LowerBound,
		Pruned:     finding.Pruned,
		DP:         finding.DP,
	}
	bd, err := eval.Evaluate(req.Tree, out.Assignment)
	if err != nil {
		return nil, fmt.Errorf("core: %s produced an invalid assignment: %w", alg, err)
	}
	out.Breakdown = bd
	out.Delay = bd.Delay
	// A completed exact search proves its own answer: the delay is a
	// tight lower bound even when the solver reported none (or reported
	// one off by float noise from its incremental bookkeeping).
	if out.Exact {
		out.LowerBound = out.Delay
	}
	// Stamp after evaluation: the reported solve time covers the full
	// request, not just the search.
	out.Elapsed = time.Since(start)
	return out, nil
}
