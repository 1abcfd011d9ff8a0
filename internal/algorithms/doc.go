// Package algorithms links every built-in solver into the core algorithm
// registry, in the manner of database/sql drivers: importing it for side
// effects populates the registry with the graph-based solvers
// (internal/assign), the independent exact solvers and both names of the
// one branch-and-bound engine — sequential and work-stealing, which is
// the same search at a worker count above one (internal/exact) — and the
// heuristics (internal/heuristics). The public repro package imports it, so
// every program built on repro sees the full solver set; internal tools and
// tests that call core.SolveContext directly import it explicitly.
package algorithms

import (
	_ "repro/internal/assign"
	_ "repro/internal/exact"
	_ "repro/internal/heuristics"
)
