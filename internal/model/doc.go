// Package model defines the data model of the paper: ordered CRU trees
// (Context Reasoning Units) whose leaves are sensors physically attached to
// the satellites of a host–satellites star network, per-CRU execution
// profiles (host time h_i, satellite time s_i), per-edge communication
// costs, and assignments of CRUs onto the host or their correspondent
// satellites.
//
// The model is deliberately self-contained: every other package
// (assignment-graph construction, solvers, simulator, workload generators)
// builds on the invariants established and validated here, and the paper's
// §5.1 colouring lives in the compiled plan (Compile).
package model
