package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
)

// fingerprintVersion prefixes every fingerprint so the hash scheme can
// evolve without silently colliding with values minted by older builds
// (cached results keyed by an old scheme simply miss). cr2 is the Merkle
// scheme: per-subtree hashes that delta-edits can reuse.
const fingerprintVersion = "cr2"

// fpMemo is the memoised fingerprint state of one Tree: the Merkle hash of
// every subtree, a validity mask, and the satellite partition renumbered
// by first appearance in pre-order (so satellite identity is structural,
// not nominal). Editor.Build hands a profile-edited copy the base tree's
// memo with only the root-to-edit paths invalidated, which is what makes
// re-fingerprinting a mutated tree O(depth) instead of O(n). A memo is
// never written once stored; node, rank and byRank may be shared.
type fpMemo struct {
	node   [][sha256.Size]byte // per node: Merkle hash of its subtree
	valid  []bool              // per node: node[] entry is current
	rank   []int32             // per satellite: rank by first appearance, -1 if sensorless
	byRank []SatelliteID       // per rank: the satellite holding it
	fp     string              // rendered fingerprint; "" until computed
}

// sensorRank is the satellite rank a node contributes to its hash: its
// satellite's rank for a sensor, -1 otherwise.
func (m *fpMemo) sensorRank(nd *Node) int32 {
	if nd.Kind != SensorKind {
		return -1
	}
	return m.rank[nd.Satellite]
}

// Fingerprint returns a canonical, order-stable content hash of the
// problem instance: two structurally identical trees — same shape in the
// same planar embedding, same execution profiles, same communication
// costs, same sensor-to-satellite partition — share a fingerprint even
// when their node and satellite names differ or they were built in a
// different construction order. It is the cache identity of a tree: the
// serving layer keys solve results by Fingerprint plus the request
// parameters (algorithm, objective weights, seed, budget).
//
// The hash covers everything the solvers read and nothing they ignore:
//   - the tree shape and planar embedding, via per-subtree Merkle hashes
//     that fold each node's ordered children hashes into its own (sibling
//     order is semantic: it defines the faces of the assignment graph);
//   - each node's kind, h_i, s_i and c_{i,parent} as exact float bits;
//   - the satellite partition, with satellites renumbered by first
//     appearance in pre-order so satellite identity is structural, not
//     nominal.
//
// Names and the incidental NodeID/SatelliteID numbering are excluded.
//
// The Merkle structure makes the hash delta-aware: the per-node hashes
// are memoised on the (immutable) tree, and Editor.Build hands a
// profile-edited copy the base tree's memo with only the paths from the
// edited nodes to the root invalidated, so re-fingerprinting after a
// weight update costs O(depth) hashes instead of O(n). Every other tree
// starts without a memo: Builder, FromSpec, Clone and structural edits
// derive fresh traversal orders and compute the hashes on first use.
func Fingerprint(t *Tree) string { return fingerprintMemo(t).fp }

// fingerprintMemo returns t's complete fingerprint memo, computing it on
// first use.
func fingerprintMemo(t *Tree) *fpMemo {
	if m := t.fpm.Load(); m != nil && m.fp != "" {
		return m
	}
	m := computeFingerprint(t)
	t.fpm.Store(m)
	return m
}

// CanonicalPlacement renders a in the fingerprint's numbering: one entry
// per pre-order position of t, -1 for the host, otherwise the rank of the
// node's satellite by first appearance in pre-order. Trees with equal
// fingerprints read a placement as the same assignment, so it outlives
// the tree it was taken from (see PlaceCanonical).
func CanonicalPlacement(t *Tree, a *Assignment) []int32 {
	m := fingerprintMemo(t)
	p := make([]int32, len(t.preorder))
	for i, id := range t.preorder {
		p[i] = -1
		if s, ok := a.Loc[id].Satellite(); ok {
			p[i] = m.rank[s]
		}
	}
	return p
}

// PlaceCanonical rebuilds on t the assignment a canonical placement
// describes. It checks only that p fits t's shape — its length and rank
// range — not that the assignment is feasible; Validate does that.
func PlaceCanonical(t *Tree, p []int32) (*Assignment, error) {
	if len(p) != len(t.nodes) {
		return nil, fmt.Errorf("model: placement covers %d nodes, tree has %d", len(p), len(t.nodes))
	}
	m := fingerprintMemo(t)
	a := &Assignment{Loc: make([]Location, len(p))}
	for i, id := range t.preorder {
		switch r := p[i]; {
		case r == -1:
		case r < 0 || int(r) >= len(m.byRank):
			return nil, fmt.Errorf("model: placement rank %d at pre-order position %d, tree has %d ranked satellites",
				r, i, len(m.byRank))
		default:
			a.Loc[id] = OnSatellite(m.byRank[r])
		}
	}
	return a, nil
}

// adoptFingerprintMemo seeds t's fingerprint memo from base's, invalidating
// the dirty nodes and all their ancestors. The caller guarantees t and base
// share shape, planar embedding and satellite partition (profile-only
// edits), so every still-valid per-subtree hash is correct for t as well.
// The hashes and ranks are shared read-only (computeFingerprint copies
// what it keeps); only the validity mask is t's own. A missing or
// mismatched base memo is ignored: Fingerprint then recomputes from
// scratch.
func (t *Tree) adoptFingerprintMemo(base *Tree, dirty []NodeID) {
	bm := base.fpm.Load()
	if bm == nil || len(bm.node) != t.Len() {
		return
	}
	m := &fpMemo{
		node:   bm.node,
		valid:  append([]bool(nil), bm.valid...),
		rank:   bm.rank,
		byRank: bm.byRank,
	}
	for _, id := range dirty {
		for cur := id; cur != None && m.valid[cur]; cur = t.nodes[cur].Parent {
			m.valid[cur] = false
		}
	}
	t.fpm.Store(m)
}

// computeFingerprint fills a fresh memo, reusing every still-valid subtree
// hash of the tree's current memo (left behind by adoptFingerprintMemo).
// The current memo is only read: it may share its slices with another
// tree's.
func computeFingerprint(t *Tree) *fpMemo {
	n := t.Len()
	prev := t.fpm.Load()
	m := &fpMemo{
		node:   make([][sha256.Size]byte, n),
		valid:  make([]bool, n),
		rank:   make([]int32, len(t.satellites)),
		byRank: make([]SatelliteID, 0, len(t.satellites)),
	}

	// Satellites renumbered by first appearance in pre-order.
	for i := range m.rank {
		m.rank[i] = -1
	}
	for _, id := range t.Preorder() {
		nd := &t.nodes[id]
		if nd.Kind == SensorKind && m.rank[nd.Satellite] < 0 {
			m.rank[nd.Satellite] = int32(len(m.byRank))
			m.byRank = append(m.byRank, nd.Satellite)
		}
	}

	reuse := prev != nil && len(prev.node) == n && len(prev.rank) == len(t.satellites)
	h := sha256.New()
	var buf [8]byte
	for _, id := range t.Postorder() {
		nd := &t.nodes[id]
		if reuse && prev.valid[id] && prev.sensorRank(nd) == m.sensorRank(nd) {
			// A valid entry certifies the whole subtree unchanged; its
			// children need not even be looked at.
			m.node[id] = prev.node[id]
			m.valid[id] = true
			continue
		}
		h.Reset()
		buf[0] = byte(nd.Kind)
		h.Write(buf[:1])
		writeFPFloat(h, &buf, nd.HostTime)
		writeFPFloat(h, &buf, nd.SatTime)
		writeFPFloat(h, &buf, nd.UpComm)
		writeFPInt(h, &buf, int(m.sensorRank(nd)))
		writeFPInt(h, &buf, len(nd.Children))
		for _, c := range nd.Children {
			h.Write(m.node[c][:])
		}
		h.Sum(m.node[id][:0])
		m.valid[id] = true
	}

	h.Reset()
	writeFPInt(h, &buf, n)
	writeFPInt(h, &buf, len(t.satellites))
	h.Write(m.node[t.root][:])
	sum := h.Sum(nil)
	m.fp = fingerprintVersion + "-" + hex.EncodeToString(sum[:16])
	return m
}

func writeFPInt(h hash.Hash, buf *[8]byte, v int) {
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:])
}

func writeFPFloat(h hash.Hash, buf *[8]byte, v float64) {
	// Exact bit pattern: fingerprints never round. +0/−0 collapse so the
	// two representations of "no cost" agree.
	if v == 0 {
		v = 0
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}
