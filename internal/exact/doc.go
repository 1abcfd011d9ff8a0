// Package exact provides three independent exact solvers for the
// tree-to-host-satellites assignment problem, used as ground truth for the
// paper's graph-based algorithm and as the baselines of experiments E9/E10:
//
//   - BruteForce enumerates every feasible assignment (exponential; small
//     instances only);
//   - Pareto solves by dynamic programming over per-region Pareto frontiers
//     of (satellite-load, host-time) pairs on the compiled plan —
//     polynomial for bounded frontier sizes. It shares only the frontier
//     kernel, dwg.MergeFrontier, with the dual-graph machinery; the
//     sort-based DP it replaced (pareto_ref_test.go), brute force and
//     branch-and-bound (FuzzExactSolversAgree) stay independent checks.
//     ParetoWeighted minimises any WS·S + WB·B; the adapted SSB solver
//     calls it to finish a solve its elimination loop cannot;
//   - BranchAndBound prunes the brute-force tree with delay lower bounds —
//     one of the two heuristic directions the paper's §6 names for future
//     work (here made exact because the objective admits a monotone bound).
//     It is the repo's one branch-and-bound engine: BnBOptions.Workers
//     above 1 runs the same search work-stealing across goroutines
//     (registered as "parallel-bnb"), and one worker is the sequential
//     search (registered as "branch-and-bound").
package exact
