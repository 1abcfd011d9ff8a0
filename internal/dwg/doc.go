// Package dwg implements doubly weighted graphs (DWGs) and the path-search
// algorithms of the paper's §4: every edge carries an ordered pair of
// non-negative weights ⟨σ, β⟩ (a sum weight and a bottleneck weight); a path
// P has S(P) = Σ σ(e) and B(P) = max β(e); the paper's SSB measure is the
// weighted sum of the two, and its SSB algorithm finds a path minimising it
// by alternating min-S searches with the elimination of high-β edges.
//
// The same elimination skeleton also yields Bokhari's original SB algorithm
// (minimise max(S(P), B(P)), IEEE ToC 1988), which this package provides as
// the baseline the paper compares its objective against.
//
// The graph is self-contained: an edge store with stable IDs and
// soft-delete, and the one shortest-path kernel SSB runs (binary-heap
// Dijkstra on σ, hand-rolled so the inner loop does not go through
// container/heap). The adapted solver of the coloured assignment graph
// keeps its own monotone pass in package assign.
//
// MergeFrontier is the repo's one Pareto-frontier kernel: it merges
// shifted (S, B) staircases into an arena under one set of tie rules.
// Adapted SSB's band expansion (package assign) and pareto-dp (package
// exact) build every frontier with it. The oracles that check them share
// none of it: the insertion-based band DP and the sort-based pareto-dp
// kept in those packages' tests, and brute force and branch-and-bound in
// FuzzExactSolversAgree.
//
// One deliberate deviation from the paper's prose: edges with β ≥ B(P) are eliminated, not only β > B(P). The strict rule can
// stall (no edge removed when the min-S path is its own bottleneck), while
// the inclusive rule is equally sound — any path through a removed edge has
// S ≥ S(P) and B ≥ B(P), so it cannot beat the recorded candidate — and it
// reproduces the published Figure 4 trace exactly.
package dwg
