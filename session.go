package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/incremental"
)

// Mutations of a live Session tree, applied with Session.Mutate. The set
// is sealed; nodes and satellites are addressed by name, the stable
// handle across revisions.
type (
	// Mutation is one edit of a session's tree.
	Mutation = incremental.Mutation
	// WeightUpdate drifts one node's execution profile and/or uplink
	// cost; nil fields keep the current value.
	WeightUpdate = incremental.WeightUpdate
	// AttachSubtree grafts a Spec fragment under the named parent.
	AttachSubtree = incremental.AttachSubtree
	// DetachSubtree removes the subtree rooted at the named node.
	DetachSubtree = incremental.DetachSubtree
	// SatelliteChange re-homes a sensor onto another satellite by name.
	SatelliteChange = incremental.SatelliteChange
)

// ApplyMutations folds the mutations into a new validated revision of t,
// leaving t untouched. Most callers want a Session, which also carries
// the warm-start state; ApplyMutations is the stateless building block.
func ApplyMutations(t *Tree, muts ...Mutation) (*Tree, error) {
	return incremental.Apply(t, muts...)
}

// ProjectAssignment maps an assignment computed on one revision of a tree
// onto another revision by node and satellite name, repairing anything the
// mutations broke. The result is always feasible for to.
func ProjectAssignment(from *Tree, asg *Assignment, to *Tree) *Assignment {
	return incremental.Project(from, asg, to)
}

// Session is a long-lived, revisioned view of one mutating problem
// instance — the dynamic-workload entry point. A session holds the
// current tree, applies Mutate batches atomically (each success is a new
// revision; the previous revisions' trees are immutable and stay valid),
// and Resolve solves the current revision warm: the previous outcome's
// assignment is projected onto the mutated tree and offered to the solver
// as a warm start, while the Service's fingerprint-keyed cache is shared
// across revisions — a mutation stream that revisits an earlier shape
// turns those revisions into cache hits.
//
// A Session is safe for concurrent use; Mutate and Resolve serialise on
// the session's lock, but solves of different sessions proceed in
// parallel and share the Service cache.
type Session struct {
	svc *Service
	cfg settings

	mu       sync.Mutex
	tree     *Tree
	rev      int
	lastTree *Tree    // revision the last outcome was solved on
	lastOut  *Outcome // last resolved outcome (nil before the first Resolve)
}

// OpenSession starts a session on t. The options become the session's
// solve defaults, layered over the Service solver's own defaults and
// overridable per Resolve call.
//
// Opening is cheap; the first Resolve does the cold solve. With
// BranchBound or ParallelBnB that solve, like every later one, is first
// tried by the Pareto DP, which proves the optimum without a search on
// every instance whose frontiers fit the budget and deadline. A solve
// that reaches the search starts from the previous revision's answer,
// projected onto the mutated tree, as its incumbent.
func (s *Service) OpenSession(t *Tree, opts ...Option) (*Session, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil tree", ErrInvalidTree)
	}
	return &Session{svc: s, cfg: s.solver.settingsFor(opts), tree: t}, nil
}

// Tree returns the current revision's tree (immutable; a later Mutate
// replaces rather than modifies it).
func (sess *Session) Tree() *Tree {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.tree
}

// Revision returns the number of successful Mutate calls so far.
func (sess *Session) Revision() int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.rev
}

// Fingerprint returns the current revision's canonical instance identity.
// After profile-only mutations this is a delta computation: only the
// root-to-edit path hashes are recomputed.
func (sess *Session) Fingerprint() string {
	tree, _ := sess.Snapshot()
	return Fingerprint(tree)
}

// Snapshot returns the current revision's tree and revision number as one
// consistent pair — Tree and Revision called separately can interleave
// with a concurrent Mutate.
func (sess *Session) Snapshot() (*Tree, int) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.tree, sess.rev
}

// Mutate applies the batch atomically: either every mutation applies and
// the session advances one revision, or the session is unchanged and the
// error says why. The warm-start state survives mutations — the next
// Resolve projects the last outcome onto the new revision.
func (sess *Session) Mutate(muts ...Mutation) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	next, err := incremental.Apply(sess.tree, muts...)
	if err != nil {
		return err
	}
	sess.tree = next
	sess.rev++
	return nil
}

// Resolve solves the current revision through the Service cache, warm:
// when a previous outcome exists and the algorithm can consume hints
// (Capabilities.WarmStart), its assignment is projected onto the current
// tree and offered to the solver via WithWarmStart. Options override the
// session's defaults for this call only. On success the outcome becomes
// the warm-start seed of the next Resolve.
func (sess *Session) Resolve(ctx context.Context, opts ...Option) (*Outcome, CacheStatus, error) {
	out, _, status, err := sess.ResolveRevision(ctx, opts...)
	return out, status, err
}

// ResolveRevision is Resolve returning also the exact tree the outcome
// was solved against. A concurrent Mutate can advance the session while
// a solve runs, so rendering an outcome against Tree() races; serving
// layers must render against the returned revision instead.
func (sess *Session) ResolveRevision(ctx context.Context, opts ...Option) (*Outcome, *Tree, CacheStatus, error) {
	sess.mu.Lock()
	tree := sess.tree
	cfg := sess.cfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.warm == nil {
		// Projection is O(n); skip it when the chosen algorithm would
		// drop the hint anyway (the default adapted-ssb does).
		if caps, ok := Capability(cfg.algorithm); ok && caps.WarmStart && sess.lastOut != nil {
			cfg.warm = incremental.Project(sess.lastTree, sess.lastOut.Assignment, tree)
		}
	}
	sess.mu.Unlock()

	out, status, err := sess.svc.solveCached(ctx, tree, cfg)
	if err != nil {
		return nil, tree, status, err
	}
	sess.mu.Lock()
	if sess.tree == tree {
		// Still the current revision: remember the outcome as the next
		// warm seed. (A concurrent Mutate raced ahead otherwise; its next
		// Resolve projects from whatever seed it kept, which stays sound —
		// warm hints are advisory.)
		sess.lastTree, sess.lastOut = tree, out
	}
	sess.mu.Unlock()
	return out, tree, status, nil
}
