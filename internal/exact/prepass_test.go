package exact

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/boundcache"
	"repro/internal/model"
	"repro/internal/workload"
)

// spanDelay is subtree p's standalone delay under loc, parent hosted,
// priced independently of the search: the host time of its hosted CRUs
// plus the largest satellite load, where a satellite carries its sunk
// CRUs' satellite time and the uplink of every edge that leaves it for
// the host (p's own uplink counts when p is off the host).
func spanDelay(c *model.Compiled, loc []model.Location, p int32) float64 {
	host := 0.0
	loads := make([]float64, c.NumSats)
	for q := c.Start[p]; q <= p; q++ {
		s, onSat := loc[q].Satellite()
		if !onSat {
			host += c.HostTime[q]
			continue
		}
		if c.Proc[q] {
			loads[s] += c.SatTime[q]
		}
		if q == p || loc[c.Parent[q]] == model.Host {
			loads[s] += c.UpComm[q]
		}
	}
	return host + maxOf(loads)
}

// TestPrepassPatternsReevaluate: the memoization pre-pass proves each
// memoizable subtree with a standalone search that marks only the CRUs
// it sinks. The pattern it records must be the filled-in optimum: on
// random trees, replaying every subtree entry's pattern onto the base
// locations prices it, standalone, at the entry's proven bound.
func TestPrepassPatternsReevaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 10; trial++ {
		spec := workload.DefaultRandomSpec(12+2*trial, 2+rng.Intn(3))
		spec.Clustered = trial%2 == 1
		tree := workload.Random(rng, spec)
		c := model.Compile(tree)
		bc := boundcache.New(boundcache.Config{})
		if seed := PrepareBounds(context.Background(), tree, bc, 1<<22); seed.BudgetHit || seed.Err != nil {
			t.Fatalf("trial %d: pre-pass stopped early", trial)
		}
		hashes := model.SubtreeHashes(tree)
		epoch, gen := make([]int32, c.NumSats), int32(0)
		loc := make([]model.Location, c.Len())
		for p := int32(0); p < int32(c.Len()); p++ {
			if !c.Proc[p] || p == c.RootPos || p+1-c.Start[p] < int32(bc.MinSpan()) {
				continue
			}
			e, ok := bc.Lookup(spanKey(c, hashes, epoch, &gen, p, false))
			if !ok || !e.Complete {
				t.Fatalf("trial %d: subtree %d has no complete entry", trial, p)
			}
			c.BaseLocations(loc)
			applyPattern(c, loc, p, e.Pattern)
			if d := spanDelay(c, loc, p); math.Abs(d-e.LB) > 1e-9*math.Max(1, e.LB) {
				t.Fatalf("trial %d: subtree %d pattern prices at %v, entry proves %v", trial, p, d, e.LB)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no memoizable subtree in the corpus")
	}
}
