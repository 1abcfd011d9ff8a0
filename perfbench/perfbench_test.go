package main

import (
	"encoding/json"
	"testing"

	"repro"
)

var testSizes = sizes{hotCorpus: 16, hotOps: 40, coldOps: 12, coldWarm: 2, sessions: 8, visits: 2, samples: 2}

// digest serialises every generated op, so two op lists compare equal
// exactly when they would drive the program identically.
func digest(t *testing.T, in *inputs) string {
	t.Helper()
	type drift struct {
		Session int
		Muts    []repro.Mutation
	}
	var d [clients][]drift
	for c := range in.drift {
		for _, op := range in.drift[c] {
			d[c] = append(d[c], drift{op.session, op.muts})
		}
	}
	b, err := json.Marshal(struct {
		Hot      [][]byte
		HotOps   [clients][]int
		Cold     [clients][]*repro.Spec
		Warm     []*repro.Spec
		Sessions [clients][]*repro.Spec
		Drift    [clients][]drift
		Sample   [clients][]int
	}{in.hot, in.hotOps, in.cold, in.warm, in.sessions, d, in.sample})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, testSizes)
		other, _ := generate(w, 8, testSizes)
		if digest(t, a) != digest(t, b) {
			t.Errorf("%s: seed 7 gave two different op lists", w)
		}
		if digest(t, a) == digest(t, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w)
		}
	}
}

// TestColdInstancesDistinct checks that every cold-solve instance misses
// the result cache: no two share a fingerprint.
func TestColdInstancesDistinct(t *testing.T) {
	in, err := generate("cold-solve", 3, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, specs := range append(in.cold[:], in.warm) {
		for _, spec := range specs {
			tree, err := repro.FromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			fp := repro.Fingerprint(tree)
			if seen[fp] {
				t.Fatalf("instance %s repeats a fingerprint", spec.Name)
			}
			seen[fp] = true
		}
	}
}

// TestCountMetricsRepeat runs the traced run twice on one seed: every op
// must pass its check, and the counts read from the program's outcomes
// must repeat exactly.
func TestCountMetricsRepeat(t *testing.T) {
	counts := []string{
		"assign.work_per_op", "assign.fallback_frac",
		"exact.explored_per_op", "exact.explored_per_op.small", "exact.explored_per_op.large",
		"exact.pruned_per_op", "boundcache.hit_ratio", "boundcache.replay_frac", "cache.hit_ratio",
	}
	var first *result
	for run := 0; run < 2; run++ {
		res, err := perLayer("session-drift", 5, 0, testSizes, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("run %d: %d of %d ops failed", run, res.Failed, res.Attempted)
		}
		if first == nil {
			first = res
			continue
		}
		for _, name := range counts {
			a, ok := first.Metrics[name]
			if !ok {
				t.Fatalf("metric %s missing", name)
			}
			if b := res.Metrics[name]; a.Value != b.Value {
				t.Errorf("%s: %v, then %v", name, a.Value, b.Value)
			}
		}
	}
	if first.Metrics["cache.hit_ratio"].Value != 1 {
		t.Errorf("serve-hot cache hit ratio %v after priming, want 1", first.Metrics["cache.hit_ratio"].Value)
	}
}
