// Package repro is the public API of this reproduction of
//
//	Mei, Pawar, Widya — "Optimal Assignment of a Tree-Structured Context
//	Reasoning Procedure onto a Host-Satellites System", IPPS 2007.
//
// It finds the assignment of a tree of Context Reasoning Units (CRUs) onto
// a host–satellites star network that minimises the end-to-end processing
// and communication delay, using the paper's coloured doubly weighted
// assignment graph and adapted SSB path search, plus a collection of
// independent exact solvers, heuristics, a discrete-event simulator, and
// the workloads and experiments that regenerate every figure of the paper.
//
// # Quick start
//
// The Solver service is the entry point: it is reusable, safe for
// concurrent use, honours context cancellation and deadlines, and is
// configured with functional options.
//
//	b := repro.NewBuilder()
//	box := b.Satellite("sensor-box")
//	root := b.Root("fuse", 3, 0)       // h=3 on the host
//	f := b.Child(root, "features", 2, 6, 0.5)
//	b.Sensor(f, "probe", box, 4)       // raw frames cost 4 to uplink
//	tree, err := b.Build()
//	...
//	solver := repro.NewSolver(repro.WithTimeout(5 * time.Second))
//	sol, err := solver.Solve(ctx, tree)
//	fmt.Println(sol.Delay, sol.Assignment.Describe(tree))
//
// Options select other algorithms and tune them per call:
//
//	sol, err = solver.Solve(ctx, tree,
//	    repro.WithAlgorithm(repro.BranchBound),
//	    repro.WithBudget(1<<20))
//
// Batches of instances are solved on a bounded worker pool, with one
// result per input tree in input order and errors isolated per item:
//
//	results, err := solver.SolveBatch(ctx, trees, repro.WithParallelism(8))
//	for i, r := range results {
//	    if r.Err != nil { ... } else { use(r.Outcome) }
//	}
//
// Failures are structured: match ErrUnknownAlgorithm, ErrBudgetExceeded,
// ErrCanceled and ErrInvalidTree with errors.Is, and recover the details
// (which algorithm, which cause) with errors.As on UnknownAlgorithmError
// and CanceledError.
//
// Algorithms are self-registering: the built-in set lives in the internal
// solver packages, and Algorithms and Capability expose the registered
// names with their capability metadata (exactness, budget/seed/weight
// support). Use Simulate to replay an assignment on the discrete-event
// testbed, and the cmd/ tools (crassign, crsim, crgen, crbench) for
// file-driven workflows.
//
// # Serving
//
// Service wraps a Solver for high-rate serving: solves are keyed by the
// canonical instance identity Fingerprint and backed by a sharded LRU of
// Outcomes with singleflight deduplication, so concurrent identical
// requests run one solve and repeats are cache hits:
//
//	svc := repro.NewService(solver, 4096)
//	out, status, err := svc.Solve(ctx, tree)   // status: miss, hit or shared
//
// Package api defines the versioned wire DTOs (SolveRequest,
// SolveResponse, structured error codes) and cmd/crserve exposes the
// Service over HTTP.
//
// # Dynamic workloads
//
// Long-lived trees under mutation traffic use a Session: mutations
// (WeightUpdate, AttachSubtree, DetachSubtree, SatelliteChange) apply as
// atomic revisions, and every Resolve is warm — the previous outcome is
// projected onto the mutated tree and offered to the solver as a seed,
// while delta-aware fingerprinting keeps cache identity cheap and lets
// revisited shapes hit the shared cache:
//
//	sess, err := svc.OpenSession(tree)
//	out, status, err := sess.Resolve(ctx)          // cold first solve
//	err = sess.Mutate(repro.WeightUpdate{Node: "filter", SatTime: &v})
//	out, status, err = sess.Resolve(ctx)           // warm re-solve
//
// cmd/crserve exposes sessions under /v1/session; examples/dynamic walks
// a complete drifting-weights scenario.
package repro

import (
	"io"

	_ "repro/internal/algorithms" // link every built-in solver into the registry
	"repro/internal/core"
	"repro/internal/dwg"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/sim"
)

// Re-exported model types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Tree is a validated CRU tree with its satellite set.
	Tree = model.Tree
	// Builder assembles a Tree.
	Builder = model.Builder
	// NodeID identifies a node of a Tree.
	NodeID = model.NodeID
	// SatelliteID identifies a satellite.
	SatelliteID = model.SatelliteID
	// Location is the host or one satellite.
	Location = model.Location
	// Assignment places CRUs onto locations.
	Assignment = model.Assignment
	// Spec is the JSON interchange form of a problem instance.
	Spec = model.Spec
	// SpecCRU is one processing-CRU row of a Spec.
	SpecCRU = model.SpecCRU
	// SpecSensor is one sensor row of a Spec.
	SpecSensor = model.SpecSensor
	// Breakdown itemises an assignment's delay.
	Breakdown = eval.Breakdown
	// Algorithm names a registered solver.
	Algorithm = core.Algorithm
	// Capabilities is a registered solver's metadata.
	Capabilities = core.Capabilities
	// Outcome is a uniform solver result.
	Outcome = core.Outcome
	// Incumbent is one improving solution streamed by an anytime solver
	// through WithIncumbents.
	Incumbent = core.Incumbent
	// SearchStats details a graph-based solver's run.
	SearchStats = core.SearchStats
	// Weights are the WS·S + WB·B objective coefficients.
	Weights = dwg.Weights
	// SimConfig parameterises the discrete-event simulator.
	SimConfig = sim.Config
	// SimResult is a simulation outcome.
	SimResult = sim.Result
)

// Structured errors of the solve service, matched with errors.Is.
var (
	// ErrUnknownAlgorithm reports a solve naming no registered algorithm.
	ErrUnknownAlgorithm = core.ErrUnknownAlgorithm
	// ErrBudgetExceeded reports an exact search that hit its budget.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrCanceled reports a solve stopped by context cancellation or
	// deadline; the wrapped cause matches context.Canceled/DeadlineExceeded.
	ErrCanceled = core.ErrCanceled
	// ErrInvalidTree reports a nil or invalid problem tree.
	ErrInvalidTree = core.ErrInvalidTree
)

// Error types carrying the failure details, matched with errors.As.
type (
	// UnknownAlgorithmError lists the requested and the known names.
	UnknownAlgorithmError = core.UnknownAlgorithmError
	// CanceledError names the canceled algorithm and the context cause.
	CanceledError = core.CanceledError
)

// Algorithm names; see Capability for semantics. AdaptedSSB (the paper's
// algorithm) is the default.
const (
	AdaptedSSB      = core.AdaptedSSB
	ParetoDP        = core.ParetoDP
	BruteForce      = core.BruteForce
	BranchBound     = core.BranchBound
	AllHost         = core.AllHost
	MaxDistribution = core.MaxDistribution
	GreedyHost      = core.GreedyHost
	GreedyTop       = core.GreedyTop
	Annealing       = core.Annealing
	Genetic         = core.Genetic
	ParallelBnB     = core.ParallelBnB
	AnnealingPack   = core.AnnealingPack
)

// Simulator timing models.
const (
	// PaperBarrier reproduces the paper's analytic timing exactly.
	PaperBarrier = sim.PaperBarrier
	// Overlapped is the event-driven refinement.
	Overlapped = sim.Overlapped
)

// DefaultWeights is the paper's S + B end-to-end delay objective.
var DefaultWeights = dwg.Default

// Lambda returns the convex objective λ·S + (1−λ)·B.
func Lambda(l float64) Weights { return dwg.Lambda(l) }

// NewBuilder returns an empty tree builder.
func NewBuilder() *Builder { return model.NewBuilder() }

// FromSpec builds a validated tree from its JSON interchange form.
func FromSpec(s *Spec) (*Tree, error) { return model.FromSpec(s) }

// ToSpec converts a tree back to its interchange form.
func ToSpec(t *Tree, name string) *Spec { return model.ToSpec(t, name) }

// ReadSpec decodes a Spec from JSON and builds the tree.
func ReadSpec(r io.Reader) (*Tree, error) { return model.ReadSpec(r) }

// WriteSpec encodes t as indented JSON.
func WriteSpec(w io.Writer, t *Tree, name string) error { return model.WriteSpec(w, t, name) }

// DOT renders the tree in Graphviz DOT syntax.
func DOT(t *Tree, title string) string { return model.DOT(t, title) }

// Fingerprint returns the canonical, order-stable content hash of the
// problem instance: structurally identical trees (same shape, profiles,
// costs and satellite partition, regardless of names) share it. It is the
// instance identity the Service caches by.
func Fingerprint(t *Tree) string { return model.Fingerprint(t) }

// NewAssignment returns the everything-on-host assignment for t.
func NewAssignment(t *Tree) *Assignment { return model.NewAssignment(t) }

// OnSatellite returns the location of the given satellite.
func OnSatellite(id SatelliteID) Location { return model.OnSatellite(id) }

// Host is the host machine's location.
var Host = model.Host

// Algorithms lists every registered solver, exact ones first.
func Algorithms() []Algorithm { return core.Algorithms() }

// Capability returns the registered capability metadata of an algorithm.
func Capability(a Algorithm) (Capabilities, bool) { return core.Capability(a) }

// Evaluate computes the delay breakdown of an assignment.
func Evaluate(t *Tree, a *Assignment) (*Breakdown, error) { return eval.Evaluate(t, a) }

// Simulate replays an assignment on the discrete-event testbed.
func Simulate(t *Tree, a *Assignment, cfg SimConfig) (*SimResult, error) {
	return sim.Run(t, a, cfg)
}
