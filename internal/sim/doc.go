// Package sim is the discrete-event simulator of the host–satellites
// execution platform — the synthetic testbed substituting for the paper's
// physical sensor boxes and mobile terminal. Given a CRU
// tree and an assignment it simulates frames of context flowing bottom-up:
// satellite CPUs execute their CRUs, uplinks ship cut-edge traffic to the
// host, and the host CPU performs the final reasoning.
//
// Two timing models are provided:
//
//   - PaperBarrier reproduces the paper's §3 analytic model exactly: each
//     satellite serialises its processing and transmissions on one resource,
//     and the host only starts once every satellite-side activity of the
//     frame has finished. The simulated makespan of a single frame equals
//     eval.Delay to the last bit — the integration test of the whole model.
//   - Overlapped is the event-driven refinement: a CRU starts as soon as
//     its inputs are available and its resource is free, and uplinks are
//     separate resources from satellite CPUs. Its makespan never exceeds
//     the PaperBarrier one; the gap measures how conservative the paper's
//     objective is (experiment E13).
//
// Multiple frames can be pushed through with a configurable inter-arrival
// interval to study pipelining/throughput, an extension beyond the paper.
package sim
