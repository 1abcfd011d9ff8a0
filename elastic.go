package repro

import (
	"fmt"
	"slices"
	"strings"
)

// This file is the solver-side seam of the elastic cluster layer: how a
// node's warm state — result-cache entries and session warm seeds —
// leaves one process and is adopted by another. The wire format lives in
// package api; here live the typed export/adopt hooks the serving layer
// composes.

// WarmEntry is one result-cache entry prepared for migration: the
// node-independent cache key, the outcome, and its assignment as a
// canonical placement (model.CanonicalPlacement), which any tree with
// the key's fingerprint reads in its own numbering.
type WarmEntry struct {
	Key       string
	Placement []int32
	Outcome   *Outcome
}

// FingerprintOfKey extracts the instance fingerprint from a Service
// cache key ("" when key is not a Service key). Keys are
// "<fingerprint>|a=<algorithm>|...", so this is the routing handle the
// migration planner maps onto ring ownership.
func FingerprintOfKey(key string) string {
	fp, _, ok := strings.Cut(key, "|a=")
	if !ok {
		return ""
	}
	return fp
}

// ExportWarm returns up to limit cached results that should move,
// grouped by destination node: dest maps an instance fingerprint to the
// node that should now hold it ("" = stays here). Ordering within each
// shard is most-recently-used first, so under a tight limit the hottest
// entries travel.
func (s *Service) ExportWarm(limit int, dest func(fingerprint string) string) map[string][]WarmEntry {
	if dest == nil || limit <= 0 {
		return nil
	}
	kvs := s.cache.Export(limit, func(key string) bool {
		fp := FingerprintOfKey(key)
		return fp != "" && dest(fp) != ""
	})
	if len(kvs) == 0 {
		return nil
	}
	out := make(map[string][]WarmEntry)
	for _, kv := range kvs {
		cs, ok := kv.Val.(*cachedSolve)
		if !ok || cs.out == nil || cs.out.Partial {
			continue
		}
		node := dest(FingerprintOfKey(kv.Key))
		if node == "" {
			continue
		}
		out[node] = append(out[node], WarmEntry{Key: kv.Key, Placement: cs.placement, Outcome: cs.out})
	}
	return out
}

// AdoptWarm stores a migrated outcome under its original cache key, so
// the next identical request on this node is a warm hit. Only out's
// metadata (algorithm, exactness, bound, work, time) is kept: every hit
// rebuilds the assignment from placement on the requester's tree and
// re-evaluates it, as for any cross-tree hit. A placement that does not
// fit, or an exact claim whose re-evaluated delay exceeds its lower
// bound, turns that request into a miss that replaces the entry instead
// of serving a wrong answer.
func (s *Service) AdoptWarm(key string, placement []int32, out *Outcome) error {
	if key == "" || FingerprintOfKey(key) == "" {
		return fmt.Errorf("repro: AdoptWarm: malformed cache key %q", key)
	}
	if out == nil {
		return fmt.Errorf("repro: AdoptWarm: nil outcome")
	}
	if out.Partial {
		return fmt.Errorf("repro: AdoptWarm: partial outcomes are never cached")
	}
	if len(placement) == 0 || slices.Min(placement) < -1 {
		return fmt.Errorf("repro: AdoptWarm: malformed placement")
	}
	s.cache.Put(key, &cachedSolve{out: out, placement: placement})
	return nil
}

// WarmState returns the tree and assignment of the session's last
// resolved outcome (nil, nil before the first Resolve) — the migratable
// warm seed. The returned values are immutable snapshots.
func (sess *Session) WarmState() (*Tree, *Assignment) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.lastOut == nil {
		return nil, nil
	}
	return sess.lastTree, sess.lastOut.Assignment
}

// AdoptState seeds a freshly opened session with migrated state: the
// revision counter of the original session and, when warm is non-nil, a
// warm-start assignment for the current tree. An infeasible hint is
// dropped silently — warm hints are advisory and never change answers,
// so a hint that does not survive the trip costs only the warm speedup.
func (sess *Session) AdoptState(rev int, warm *Assignment) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if rev > sess.rev {
		sess.rev = rev
	}
	if warm == nil {
		return
	}
	bd, err := Evaluate(sess.tree, warm)
	if err != nil {
		return
	}
	sess.lastTree = sess.tree
	sess.lastOut = &Outcome{Assignment: warm, Breakdown: bd, Delay: bd.Delay}
}
