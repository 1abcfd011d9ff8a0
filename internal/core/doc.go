// Package core is the solver facade: a single context-aware entry point
// dispatching through a self-registering algorithm registry — the paper's
// adapted coloured SSB (default), the three independent exact solvers, and
// the heuristic/extension solvers — with uniform timing and optimality
// metadata. The solver packages (internal/assign, internal/exact,
// internal/heuristics) register themselves via Register; importing
// repro/internal/algorithms for side effects links the full built-in set.
// The public package repro re-exports this API.
package core
