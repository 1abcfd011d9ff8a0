// Package assign implements the paper's core contribution: the coloured
// doubly weighted assignment graph (§5.2–5.3) and the adapted SSB search
// that finds the minimum end-to-end-delay assignment of a CRU tree onto a
// host–satellites system (§5.4).
//
// Construction (Bokhari's dual-graph idea, refined for colours): all
// sensors are merged into a dummy node A; with L sensors the closed tree
// has L+1 faces, numbered 0 (the "S" terminal, left of the tree) through L
// (the "T" terminal, right of the tree). Every
// non-conflicting tree edge whose child subtree covers leaf positions
// [a, b] contributes one *directed* dual edge from face a to face b+1. A
// monotone S→T path therefore crosses a set of tree edges whose leaf
// intervals tile [0, L-1] exactly — precisely the minimal antichain cuts,
// i.e. the feasible assignments.
//
// Labels: the dual edge crossing tree edge ⟨i,j⟩ carries
//
//	β = Σ_{k ∈ subtree(j)} s_k + c_{j,i}   (satellite work + uplink, §5.3)
//	σ = the Figure-8 pre-order label: each CRU j charges h_j to the edge
//	    towards its leftmost child, accumulated from the root, so that the
//	    σ-sum over any cut equals the host execution time of the part above
//	    the cut.
//
// and inherits the tree edge's colour. The coloured B weight of a path is
// max over colours of the per-colour β sums, and the end-to-end delay of
// the decoded assignment is exactly S(P) + B(P).
package assign
