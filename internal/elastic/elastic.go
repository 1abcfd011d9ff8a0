// Package elastic is the dynamic-membership and state-migration layer of
// the cluster tier. It turns the static seed-list ring into an
// epoch-numbered view that can grow and shrink at runtime, and makes
// membership changes *warm*: before routing flips to a new view, the
// warm state whose ownership moves — result-cache entries and session
// snapshots — is pushed to its new owner.
//
// # Epoch lifecycle
//
// A view is (epoch, member list). Epochs only move forward; a node
// applies a view iff its epoch is strictly higher than the current one,
// so duplicate broadcasts and late gossip are idempotent no-ops. A new
// view enters the fleet through one node — an operator POST to
// /v1/cluster/members, a SIGHUP seed-list reload, or the fleet
// autoscaler — which mints current+1 as the epoch (Propose), applies it
// locally, and broadcasts the numbered view to every node involved
// (union of old and new members). Nodes that miss the broadcast learn of
// the newer epoch through the health-probe gossip path (every /healthz
// response advertises the responder's epoch on api.EpochHeader) and pull
// the view from the advertising peer.
//
// # Migration protocol
//
// Applying a view is push-then-flip: the applying node first diffs the
// old and new rings, computes the fingerprints it holds whose owner
// moved, and pushes that state over POST /v1/migrate/{cache,sessions}
// — each push stamped with the new epoch on api.EpochHeader —
// and only then swaps its routing view. A receiver on a newer view
// rejects the stale push (409, counted), so state from a superseded
// ring can never overwrite fresher placement. A node voted out of the
// view keeps serving while draining: the new ring routes everything
// away from it, but hop-guarded forwards and session-tombstone
// redirects it answers stay correct until the operator kills it.
//
// What moves and what is recomputed: result-cache entries and session
// snapshots move (they are expensive — a solve, or a mutation history);
// compiled plans and fingerprint memos are derived state and are
// rebuilt by the adopter.
package elastic

import (
	"sort"

	"repro/internal/cluster"
)

// NormalizeMembers sorts and dedups a member list, dropping empties —
// the canonical wire form of a view (NewRing applies the same rules, so
// a normalized list round-trips through a ring unchanged).
func NormalizeMembers(members []string) []string {
	out := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// diffMembers returns the members joining and leaving between two
// normalized-or-not lists.
func diffMembers(old, next []string) (joined, left []string) {
	in := func(list []string, m string) bool {
		for _, x := range list {
			if x == m {
				return true
			}
		}
		return false
	}
	for _, m := range next {
		if !in(old, m) {
			joined = append(joined, m)
		}
	}
	for _, m := range old {
		if !in(next, m) {
			left = append(left, m)
		}
	}
	return joined, left
}

// MovedDest returns the migration predicate for a ring transition as
// seen from self: for a fingerprint this node holds state for, it
// returns the node that should receive that state — the new owner, when
// ownership actually moved and the new owner is someone else — or ""
// when the state stays put. Consistent hashing keeps most ownership
// stable across a transition, so the moved set is proportional to the
// membership change, not the keyspace.
func MovedDest(old, next *cluster.Ring, self string) func(fingerprint string) string {
	owner := ownerDest(next, self)
	return func(fp string) string {
		now := owner(fp)
		if now != "" && old != nil && old.Owner(fp) == now {
			return "" // owner unchanged: the holder keeps (or never had) it
		}
		return now
	}
}

// ownerDest returns the push predicate for state pinned to self rather
// than to its fingerprint's owner, such as sessions, which stay with the
// node that opened them: it returns the fingerprint's owner in next
// whenever that is not self, whether or not ownership moved.
func ownerDest(next *cluster.Ring, self string) func(fingerprint string) string {
	return func(fp string) string {
		if fp == "" {
			return ""
		}
		if now := next.Owner(fp); now != self {
			return now
		}
		return ""
	}
}
