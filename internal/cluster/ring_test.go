package cluster

import (
	"fmt"
	"testing"
)

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	nodes := ringNodes(5)
	a := NewRing(nodes, 64)
	reversed := make([]string, len(nodes))
	for i, n := range nodes {
		reversed[len(nodes)-1-i] = n
	}
	b := NewRing(reversed, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fp-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner depends on construction order: %q vs %q", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingDistribution(t *testing.T) {
	r := NewRing(ringNodes(3), 64)
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("fp-%d", i))]++
	}
	for node, c := range counts {
		if c < keys/10 {
			t.Errorf("node %s owns only %d/%d keys — virtual nodes not spreading", node, c, keys)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes own keys", len(counts))
	}
}

func TestRingReplicasDistinctAndOwnerFirst(t *testing.T) {
	r := NewRing(ringNodes(4), 32)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fp-%d", i)
		reps := r.Replicas(key, 4)
		if len(reps) != 4 {
			t.Fatalf("key %q: %d replicas", key, len(reps))
		}
		if reps[0] != r.Owner(key) {
			t.Fatalf("key %q: owner %q is not Replicas[0] %q", key, r.Owner(key), reps[0])
		}
		seen := map[string]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("key %q: duplicate replica %q", key, n)
			}
			seen[n] = true
		}
	}
}

// Consistent hashing's defining property: removing one member only moves
// the keys that member owned; everyone else's keys keep their owner (and
// with them, their warm caches).
func TestRingRemovalStability(t *testing.T) {
	nodes := ringNodes(4)
	full := NewRing(nodes, 64)
	without := NewRing(nodes[:3], 64) // drop the last node
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("fp-%d", i)
		was := full.Owner(key)
		now := without.Owner(key)
		if was == nodes[3] {
			continue // its keys must move somewhere
		}
		if was == now {
			kept++
		} else {
			moved++
			t.Errorf("key %q moved %q -> %q though its owner survived", key, was, now)
		}
	}
	if kept == 0 {
		t.Fatal("no keys checked")
	}
	if moved > 0 {
		t.Fatalf("%d keys moved off surviving owners", moved)
	}
}

func TestRingEmptyAndClamp(t *testing.T) {
	empty := NewRing(nil, 8)
	if got := empty.Owner("x"); got != "" {
		t.Fatalf("empty ring owner %q", got)
	}
	if reps := empty.Replicas("x", 3); reps != nil {
		t.Fatalf("empty ring replicas %v", reps)
	}
	one := NewRing([]string{"a", "a", ""}, 8) // duplicates and blanks collapse
	if one.Len() != 1 {
		t.Fatalf("len %d", one.Len())
	}
	if reps := one.Replicas("x", 5); len(reps) != 1 || reps[0] != "a" {
		t.Fatalf("replicas %v", reps)
	}
}

func TestTagStableAndDistinct(t *testing.T) {
	nodes := ringNodes(10)
	seen := map[string]string{}
	for _, n := range nodes {
		tag := Tag(n)
		if len(tag) != 8 {
			t.Fatalf("tag %q of %q is not 8 chars", tag, n)
		}
		if Tag(n) != tag {
			t.Fatalf("tag of %q unstable", n)
		}
		if prev, dup := seen[tag]; dup {
			t.Fatalf("tag %q collides: %q and %q", tag, prev, n)
		}
		seen[tag] = n
	}
}

// TestRingDistributionLoopbackPorts: fleet members started on one host
// differ only in their trailing port digits, and each member's virtual
// points differ only in their trailing index digits. Every member must
// still own a fair share of the keys.
func TestRingDistributionLoopbackPorts(t *testing.T) {
	const keys = 4000
	for set := 0; set < 20; set++ {
		nodes := make([]string, 4)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://127.0.0.1:%d", 32768+(set*4+i)*997%28000)
		}
		r := NewRing(nodes, 64)
		counts := map[string]int{}
		for i := 0; i < keys; i++ {
			counts[r.Owner(fmt.Sprintf("cr2-%x", i*2654435761))]++
		}
		for _, n := range nodes {
			if c := counts[n]; c < keys/10 {
				t.Errorf("set %d: %s owns %d of %d keys, want at least %d (%v)", set, n, c, keys, keys/10, counts)
			}
		}
	}
}
