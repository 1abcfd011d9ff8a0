package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
)

// Capabilities is the metadata a solver declares when it registers.
type Capabilities struct {
	Exact     bool   // guarantees the minimum-delay assignment
	Budget    bool   // honours Request.Budget (exploration caps)
	Seeded    bool   // randomised; Request.Seed selects the run
	Weighted  bool   // honours Request.Weights (weighted S/B objectives)
	WarmStart bool   // honours Request.Warm (seeds the search from a prior assignment)
	Anytime   bool   // streams incumbents via Request.OnIncumbent and honours Request.BestEffort
	Parallel  bool   // honours Request.Parallelism (intra-solve workers)
	Summary   string // one-line human description
}

// Finding is a registered solver's raw result: the assignment it found plus
// its effort counters. Solve wraps it into an Outcome with evaluation,
// timing and capability metadata.
type Finding struct {
	Assignment *model.Assignment
	Work       int          // algorithm-specific effort counter
	Stats      *SearchStats // populated by the graph-based solvers

	// Partial marks a best-effort result: the budget or deadline expired
	// before the search completed, so an exact solver's assignment is the
	// incumbent, not a proven optimum.
	Partial bool
	// LowerBound is a proof floor on the optimal delay, when the solver
	// can supply one (0 means "no bound"). For a completed exact search it
	// equals the returned delay.
	LowerBound float64

	// Pruned counts the branches a branch-and-bound search cut by its
	// bound; zero elsewhere.
	Pruned int

	// DP marks an answer the Pareto DP proved: Work counts the frontier
	// points it built, not search nodes.
	DP bool
}

// SolveFunc runs one algorithm on a request. Implementations must honour
// ctx in their hot loops, returning ctx.Err() (possibly wrapped) promptly
// after cancellation; Solve translates that into a CanceledError.
type SolveFunc func(ctx context.Context, req Request) (Finding, error)

type registration struct {
	caps Capabilities
	fn   SolveFunc
}

var registry = struct {
	sync.RWMutex
	m map[Algorithm]registration
}{m: map[Algorithm]registration{}}

// Register adds a solver to the registry under name. The solver packages
// call it from init (importing repro/internal/algorithms, or any of them,
// for side effects populates the registry), so dispatch is registry-only:
// adding an algorithm requires no edit to this package. Empty names, nil
// funcs and duplicate registrations are programming errors and panic.
func Register(name Algorithm, caps Capabilities, fn SolveFunc) {
	if name == "" {
		panic("core: Register with empty algorithm name")
	}
	if fn == nil {
		panic(fmt.Sprintf("core: Register(%q) with nil SolveFunc", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("core: Register(%q) called twice", name))
	}
	registry.m[name] = registration{caps: caps, fn: fn}
}

// Lookup returns the registration of name.
func Lookup(name Algorithm) (Capabilities, SolveFunc, bool) {
	registry.RLock()
	defer registry.RUnlock()
	r, ok := registry.m[name]
	return r.caps, r.fn, ok
}

// Capability returns the declared capabilities of name.
func Capability(name Algorithm) (Capabilities, bool) {
	caps, _, ok := Lookup(name)
	return caps, ok
}

// Algorithms returns all registered algorithm names, exact solvers first,
// alphabetical within each group.
func Algorithms() []Algorithm {
	registry.RLock()
	all := make([]Algorithm, 0, len(registry.m))
	for name := range registry.m {
		all = append(all, name)
	}
	registry.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		ei, ej := all[i].Exact(), all[j].Exact()
		if ei != ej {
			return ei
		}
		return all[i] < all[j]
	})
	return all
}

// Exact reports whether the algorithm is registered and guarantees the
// optimal delay.
func (a Algorithm) Exact() bool {
	caps, ok := Capability(a)
	return ok && caps.Exact
}
