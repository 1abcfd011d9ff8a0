package exact

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/boundcache"
	"repro/internal/model"
	"repro/internal/workload"
)

// hungSubtree copies the subtree at p under a root that costs nothing:
// the copy's optimal delay is p's standalone optimum, parent hosted.
func hungSubtree(t *testing.T, c *model.Compiled, p int32) *model.Tree {
	t.Helper()
	b := model.NewBuilder()
	sats := make([]model.SatelliteID, c.NumSats)
	for i := range sats {
		sats[i] = b.Satellite(fmt.Sprint("s", i))
	}
	var add func(parent model.NodeID, q int32)
	add = func(parent model.NodeID, q int32) {
		name := fmt.Sprint("n", q)
		if !c.Proc[q] {
			b.Sensor(parent, name, sats[c.Sensor[q]], c.UpComm[q])
			return
		}
		id := b.Child(parent, name, c.HostTime[q], c.SatTime[q], c.UpComm[q])
		for _, ch := range c.Children(q) {
			add(id, ch)
		}
	}
	add(b.Root("root", 0, 0), p)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestPrepassSubtreeEntriesExact: the memoization pre-pass proves each
// memoizable subtree with a standalone search and stores its optimum.
// On random trees every such subtree must have an entry, and the entry
// must prove the subtree's standalone optimum, which pareto-dp computes
// independently on the subtree hung under a zero-time root.
func TestPrepassSubtreeEntriesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 10; trial++ {
		spec := workload.DefaultRandomSpec(12+2*trial, 2+rng.Intn(3))
		spec.Clustered = trial%2 == 1
		tree := workload.Random(rng, spec)
		c := model.Compile(tree)
		bc := boundcache.New()
		if seed := PrepareBounds(context.Background(), tree, bc, 1<<22); seed.BudgetHit || seed.Err != nil {
			t.Fatalf("trial %d: pre-pass stopped early", trial)
		}
		hashes := model.SubtreeHashes(tree)
		epoch, gen := make([]int32, c.NumSats), int32(0)
		for p := int32(0); p < int32(c.Len()); p++ {
			if !c.Proc[p] || p == c.RootPos || p+1-c.Start[p] < boundcache.MinSpan {
				continue
			}
			e, ok := bc.Lookup(spanKey(c, hashes, epoch, &gen, p))
			if !ok {
				t.Fatalf("trial %d: subtree %d has no entry", trial, p)
			}
			opt, err := Pareto(hungSubtree(t, c, p), 0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(opt.Delay-e.LB) > 1e-9*math.Max(1, e.LB) {
				t.Fatalf("trial %d: subtree %d standalone optimum %v, entry proves %v", trial, p, opt.Delay, e.LB)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no memoizable subtree in the corpus")
	}
}
