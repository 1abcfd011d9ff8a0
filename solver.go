package repro

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pool"
)

// Solver is the reusable solve service: a fixed set of default options
// (chosen at construction) applied to every call, overridable per call.
// The zero-cost construction makes it cheap to create one per configuration;
// a single Solver is safe for concurrent use by multiple goroutines.
type Solver struct {
	defaults settings
}

// settings is the resolved option set of one call.
type settings struct {
	algorithm   Algorithm
	weights     Weights
	seed        int64
	budget      int
	timeout     time.Duration
	parallelism int
	solveWork   int
	warm        *Assignment
	onIncumbent func(Incumbent)
	bestEffort  bool
}

// Option configures a Solver (in NewSolver) or a single call (in Solve and
// SolveBatch, where it overrides the Solver's defaults).
type Option func(*settings)

// WithAlgorithm selects the algorithm (default AdaptedSSB, the paper's).
func WithAlgorithm(a Algorithm) Option { return func(s *settings) { s.algorithm = a } }

// WithWeights sets the WS·S + WB·B objective coefficients (default the
// paper's end-to-end delay, S + B). Only the graph-based solvers honour
// weights; see Capability.
func WithWeights(w Weights) Option { return func(s *settings) { s.weights = w } }

// WithSeed seeds the randomised heuristics (Annealing, Genetic).
func WithSeed(seed int64) Option { return func(s *settings) { s.seed = seed } }

// WithBudget caps the exploration of the budgeted exact searches
// (BruteForce, BranchBound, ParetoDP); exceeding it yields an error
// matching ErrBudgetExceeded. Zero keeps each solver's default cap.
func WithBudget(n int) Option { return func(s *settings) { s.budget = n } }

// WithTimeout bounds each solve (each batch item individually): the call's
// context is wrapped with the deadline, and on expiry the solve fails with
// an error matching ErrCanceled. Zero means no per-solve deadline.
func WithTimeout(d time.Duration) Option { return func(s *settings) { s.timeout = d } }

// WithParallelism bounds SolveBatch's worker pool (default runtime.NumCPU).
func WithParallelism(n int) Option { return func(s *settings) { s.parallelism = n } }

// WithSolveParallelism bounds the worker count inside one solve for
// solvers whose Capabilities declare Parallel (ParallelBnB's work-stealing
// search; default GOMAXPROCS). It is orthogonal to WithParallelism, which
// fans out across batch items: one saturates a node with a single large
// instance, the other with many independent ones. The hint is advisory —
// it never changes an exact solver's answer, so it is excluded from the
// Service's cache identity, and solvers without the capability ignore it.
func WithSolveParallelism(n int) Option { return func(s *settings) { s.solveWork = n } }

// WithIncumbents streams improving assignments from anytime solvers
// (BranchBound, Annealing, Genetic — see Capabilities.Anytime): each time
// the search improves its incumbent, fn receives a caller-owned clone with
// the current delay and bound. fn runs synchronously on the solving
// goroutine, so it must return quickly. Non-anytime solvers ignore it.
func WithIncumbents(fn func(Incumbent)) Option { return func(s *settings) { s.onIncumbent = fn } }

// WithBestEffort makes anytime solvers return their best-so-far assignment
// with Outcome.Partial set — instead of an error matching ErrBudgetExceeded
// or ErrCanceled — when the budget or WithTimeout deadline expires. A
// partial outcome from an exact solver is feasible but not proven optimal;
// Outcome.LowerBound carries whatever floor the solver established.
func WithBestEffort() Option { return func(s *settings) { s.bestEffort = true } }

// WithWarmStart offers a prior assignment as the starting point of the
// search — typically a previous revision's solution projected onto a
// mutated tree (Session does this automatically). The hint is advisory:
// solvers whose Capabilities declare WarmStart consume it — exact ones
// only to prune, so their answer is identical with or without it, and
// heuristics as the start of their walk — everyone else ignores it, and
// hints infeasible for the solved tree are dropped. Because it never
// changes an exact answer, the hint is excluded from the Service's cache
// identity.
func WithWarmStart(a *Assignment) Option { return func(s *settings) { s.warm = a } }

// NewSolver returns a Solver whose defaults are the given options.
func NewSolver(opts ...Option) *Solver {
	s := &Solver{}
	for _, o := range opts {
		o(&s.defaults)
	}
	return s
}

// settingsFor merges the call options over the Solver's defaults and
// resolves the fallbacks — empty algorithm means AdaptedSSB, non-positive
// parallelism means runtime.NumCPU — so every downstream path (dispatch,
// batch pool sizing, cache keying) sees the same canonical settings.
//
// The no-options path never takes the settings' address: an Option call
// would leak &cfg to an arbitrary closure and force a heap allocation on
// every Solve, which the warm serving path must not pay.
func (s *Solver) settingsFor(opts []Option) settings {
	if len(opts) == 0 {
		return resolveSettings(s.defaults)
	}
	cfg := new(settings)
	*cfg = s.defaults
	for _, o := range opts {
		o(cfg)
	}
	return resolveSettings(*cfg)
}

func resolveSettings(cfg settings) settings {
	if cfg.algorithm == "" {
		cfg.algorithm = AdaptedSSB
	}
	if cfg.parallelism <= 0 {
		cfg.parallelism = runtime.NumCPU()
	}
	return cfg
}

// Solve finds the minimum-delay assignment of t under the Solver's
// defaults overridden by opts. The context cancels the solver's hot loops;
// cancellation and WithTimeout expiry yield an error matching ErrCanceled.
func (s *Solver) Solve(ctx context.Context, t *Tree, opts ...Option) (*Outcome, error) {
	return solveOne(ctx, t, s.settingsFor(opts))
}

func solveOne(ctx context.Context, t *Tree, cfg settings) (*Outcome, error) {
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	req := core.Request{
		Tree:        t,
		Algorithm:   cfg.algorithm,
		Weights:     cfg.weights,
		Seed:        cfg.seed,
		Budget:      cfg.budget,
		Parallelism: cfg.solveWork,
		Warm:        cfg.warm,
		OnIncumbent: cfg.onIncumbent,
		BestEffort:  cfg.bestEffort,
	}
	if t != nil {
		// Compile (or fetch) the flat plan here so every dispatch — batch
		// items, cache misses, session re-solves — reuses the revision's
		// memoised arrays explicitly rather than via the registry fallback.
		req.Plan = model.Compile(t)
	}
	return core.SolveContext(ctx, req)
}

// BatchResult is one SolveBatch item's result: exactly one of Outcome and
// Err is non-nil.
type BatchResult struct {
	Outcome *Outcome
	Err     error
}

// SolveBatch solves every tree on a bounded worker pool (WithParallelism
// workers, default runtime.NumCPU). The returned slice has one entry per
// input tree, in input order; failures are isolated per item, so one bad
// instance never disturbs its neighbours. WithTimeout bounds each item
// individually, while cancelling ctx stops the whole batch: items not yet
// finished fail with errors matching ErrCanceled, and the batch-level
// error (nil on an undisturbed run) reports the cancellation.
func (s *Solver) SolveBatch(ctx context.Context, trees []*Tree, opts ...Option) ([]BatchResult, error) {
	cfg := s.settingsFor(opts)
	results := make([]BatchResult, len(trees))
	pool.Run(ctx, len(trees), cfg.parallelism, func(i int) {
		out, err := solveOne(ctx, trees[i], cfg)
		results[i] = BatchResult{Outcome: out, Err: err}
	})

	if err := ctx.Err(); err != nil {
		// Items the feeder never dispatched carry no result yet; mark them
		// canceled so every entry is populated. settingsFor already
		// resolved cfg.algorithm, so the error names the real default.
		for i := range results {
			if results[i].Outcome == nil && results[i].Err == nil {
				results[i].Err = &core.CanceledError{Algorithm: cfg.algorithm, Cause: err}
			}
		}
		return results, &core.CanceledError{Algorithm: cfg.algorithm, Cause: err}
	}
	return results, nil
}
