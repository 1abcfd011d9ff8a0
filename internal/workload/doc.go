// Package workload provides every problem instance the experiments run on:
// the canonical reconstruction of the paper's Figure-2/5/6/8 CRU tree, the
// Figure-4 doubly weighted graph, the epilepsy tele-monitoring scenario the
// paper's introduction motivates, an SNMP network-monitoring scenario (named
// in §3 as a second observation source), and parameterised random
// generators used by the property tests and the scaling experiments.
//
// The paper profiles real hardware ("analytical benchmarking or task
// profiling techniques", §5.3); the numeric profiles here are a synthetic
// substitute, chosen so that satellites are slower
// than the host (sensor boxes vs PDA) and raw sensor streams are bulkier
// than processed context, which is the regime that makes the assignment
// problem non-trivial.
package workload
