package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring over node IDs. Each node is
// projected onto the ring at VirtualNodes points so ownership spreads
// evenly even for small clusters; a key's owner is the first point
// clockwise from the key's hash. Points that collide onto one hash value
// are ordered by rendezvous score (highest hash(node,key) first), so
// ownership stays deterministic and node-order independent even then.
type Ring struct {
	nodes  []string // sorted, distinct
	points []point  // sorted by (hash, node)
	vnodes int
}

// point is one virtual node: the ring position and the index of the node
// that owns it.
type point struct {
	hash uint64
	node int
}

// NewRing builds the ring over nodes (duplicates are collapsed) with
// virtualNodes points per node (minimum 1; 0 selects the default of 64).
func NewRing(nodes []string, virtualNodes int) *Ring {
	if virtualNodes <= 0 {
		virtualNodes = 64
	}
	distinct := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			distinct = append(distinct, n)
		}
	}
	sort.Strings(distinct)
	r := &Ring{nodes: distinct, vnodes: virtualNodes}
	r.points = make([]point, 0, len(distinct)*virtualNodes)
	for i, n := range distinct {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, point{hash: hashStrings(n, strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Nodes returns the member IDs in sorted order. The slice is shared:
// callers must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// VirtualNodes returns the per-node point count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Owner returns the node owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}

// Replicas returns up to n distinct nodes in the key's clockwise ring
// order: the owner first, then the nodes a failed-over solve should
// prefer next. n > Len() is clamped.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	kh := hashStrings(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })

	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	add := func(node int) bool {
		if !taken[node] {
			taken[node] = true
			out = append(out, r.nodes[node])
		}
		return len(out) >= n
	}
	// Walk clockwise one collision group at a time: points sharing a hash
	// value are re-ordered by rendezvous score against this key before
	// they are taken, so a collision never makes ownership depend on the
	// incidental node sort order.
	for step := 0; step < len(r.points); {
		i := (start + step) % len(r.points)
		group := 1
		for step+group < len(r.points) {
			j := (start + step + group) % len(r.points)
			if r.points[j].hash != r.points[i].hash {
				break
			}
			group++
		}
		if group == 1 {
			if add(r.points[i].node) {
				return out
			}
		} else {
			members := make([]int, 0, group)
			for g := 0; g < group; g++ {
				members = append(members, r.points[(start+step+g)%len(r.points)].node)
			}
			sort.Slice(members, func(a, b int) bool {
				sa := hashStrings(r.nodes[members[a]], key)
				sb := hashStrings(r.nodes[members[b]], key)
				if sa != sb {
					return sa > sb
				}
				return r.nodes[members[a]] < r.nodes[members[b]]
			})
			for _, m := range members {
				if add(m) {
					return out
				}
			}
		}
		step += group
	}
	return out
}

// hashStrings is the ring's 64-bit hash: FNV-1a over the parts joined
// with a NUL separator (so ("ab","c") and ("a","bc") hash apart), then
// the murmur3 64-bit finalizer. FNV-1a alone barely moves the high bits
// when only the last bytes differ — a member's virtual points "…#0",
// "…#1", … and members on one host that differ only in their port —
// so those points bunch into a few arcs and a member can own almost
// nothing; the finalizer spreads every input bit over the whole word.
func hashStrings(parts ...string) uint64 {
	h := fnv.New64a()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte{0})
		}
		h.Write([]byte(p))
	}
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Tag returns the short stable identifier of a node ID, used to encode
// ring ownership inside session IDs ("<tag>-<random>"): 8 hex digits of
// the node's hash, enough to tell fleet members apart without leaking
// the peer URL into client-visible IDs.
func Tag(node string) string {
	const hexdigits = "0123456789abcdef"
	h := hashStrings("tag", node)
	var b [8]byte
	for i := range b {
		b[i] = hexdigits[(h>>(uint(56-8*i)))&0xf]
	}
	return string(b[:])
}
