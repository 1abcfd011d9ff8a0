package repro_test

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro"
)

// renumbered returns a copy of spec that describes the same instance
// under other satellite names and SatelliteIDs: the satellites are
// declared in reverse order and renamed. The copy shares the original's
// fingerprint but not its numbering. (randomSpec declares satellites in
// order of first appearance, so its own IDs equal the canonical ranks;
// the tests below solve the copy, where they differ, and serve the
// original.)
func renumbered(spec *repro.Spec) *repro.Spec {
	out := *spec
	rename := make(map[string]string, len(spec.Satellites))
	out.Satellites = make([]string, 0, len(spec.Satellites))
	for i := len(spec.Satellites) - 1; i >= 0; i-- {
		name := "renamed-" + spec.Satellites[i]
		rename[spec.Satellites[i]] = name
		out.Satellites = append(out.Satellites, name)
	}
	out.Sensors = slices.Clone(spec.Sensors)
	for i := range out.Sensors {
		out.Sensors[i].Satellite = rename[out.Sensors[i].Satellite]
	}
	return &out
}

func mustTree(t *testing.T, spec *repro.Spec) *repro.Tree {
	t.Helper()
	tree, err := repro.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// checkServed fails unless out, served for tree, is a valid assignment in
// tree's own numbering whose delay re-evaluates to out.Delay and equals a
// fresh solve's.
func checkServed(t *testing.T, tree *repro.Tree, out *repro.Outcome) {
	t.Helper()
	bd, err := repro.Evaluate(tree, out.Assignment)
	if err != nil {
		t.Fatalf("served assignment invalid on the requesting tree: %v", err)
	}
	fresh, err := repro.NewSolver().Solve(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Delay != out.Delay || out.Delay != fresh.Delay {
		t.Fatalf("served delay %v re-evaluates to %v, fresh solve %v", out.Delay, bd.Delay, fresh.Delay)
	}
}

// TestResultCacheReleasesTrees checks that a result-cache entry does not
// keep the tree it was solved on alive, and that its answer stays
// servable: to the same tree while it is held, as the stored Outcome, and
// to a re-numbered copy after the source tree is gone, re-placed and
// re-evaluated.
func TestResultCacheReleasesTrees(t *testing.T) {
	const n = 64
	ctx := context.Background()
	svc := repro.NewService(nil, n)
	specs := make([]*repro.Spec, n+1)
	refs := make([]weak.Pointer[repro.Tree], n)
	for i := range specs {
		specs[i] = randomSpec(int64(7000+i), 24, 4)
	}
	for i := range refs {
		tree := mustTree(t, renumbered(specs[i]))
		if _, status, err := svc.Solve(ctx, tree); err != nil || status != repro.CacheMiss {
			t.Fatalf("instance %d: status %v, err %v; want a miss", i, status, err)
		}
		refs[i] = weak.Make(tree)
	}
	runtime.GC()
	runtime.GC()
	for i, ref := range refs {
		if ref.Value() != nil {
			t.Fatalf("tree %d survived GC: the result cache keeps it alive", i)
		}
	}

	// The same tree, still held, gets the stored Outcome itself.
	held := mustTree(t, specs[n])
	first, status, err := svc.Solve(ctx, held)
	if err != nil || status != repro.CacheMiss {
		t.Fatalf("held tree: status %v, err %v; want a miss", status, err)
	}
	again, status, err := svc.Solve(ctx, held)
	if err != nil || status != repro.CacheHit || again != first {
		t.Fatalf("held tree again: status %v, err %v, same outcome %v; want the stored outcome",
			status, err, again == first)
	}
	runtime.KeepAlive(held)

	// Differently numbered twins of the dropped trees hit, in their own
	// numbering. The store's 16 shards hold 4 entries each, so some
	// instances were evicted; those solve afresh.
	hits, moved := 0, 0
	for i := range refs {
		tree := mustTree(t, specs[i])
		out, status, err := svc.Solve(ctx, tree)
		if err != nil {
			t.Fatalf("instance %d twin: %v", i, err)
		}
		checkServed(t, tree, out)
		if status != repro.CacheHit {
			continue
		}
		hits++
		for _, id := range tree.Preorder() {
			if _, onSat := out.Assignment.At(id).Satellite(); onSat && !tree.Node(id).IsLeaf() {
				moved++
				break
			}
		}
	}
	t.Logf("%d of %d twins hit, %d with CRUs on satellites", hits, n, moved)
	if moved == 0 {
		t.Fatal("no hit placed a CRU on a satellite: the re-placement went untested")
	}
}

// TestAdoptWarmCanonicalPlacement checks the migration form of a cache
// entry: exported from one Service and adopted by another, it serves a
// re-evaluated answer in the requester's numbering, and a placement that
// does not fit the instance never serves an assignment: the entry is
// dropped, the instance solved, and the fresh entry serves the next hit.
func TestAdoptWarmCanonicalPlacement(t *testing.T) {
	ctx := context.Background()
	spec := randomSpec(11, 32, 4)
	src := repro.NewService(nil, 16)
	if _, _, err := src.Solve(ctx, mustTree(t, renumbered(spec))); err != nil {
		t.Fatal(err)
	}
	warm := src.ExportWarm(16, func(string) string { return "peer" })["peer"]
	if len(warm) != 1 {
		t.Fatalf("exported %d entries, want 1", len(warm))
	}
	e := warm[0]
	meta := func() *repro.Outcome {
		return &repro.Outcome{Algorithm: e.Outcome.Algorithm, Exact: e.Outcome.Exact, Work: e.Outcome.Work,
			LowerBound: e.Outcome.LowerBound}
	}

	dst := repro.NewService(nil, 16)
	if err := dst.AdoptWarm(e.Key, e.Placement, meta()); err != nil {
		t.Fatal(err)
	}
	tree := mustTree(t, spec)
	out, status, err := dst.Solve(ctx, tree)
	if err != nil || status != repro.CacheHit {
		t.Fatalf("adopted entry: status %v, err %v; want a hit", status, err)
	}
	checkServed(t, tree, out)
	if dst.Stats().Misses != 0 {
		t.Fatal("the adopter solved the instance itself")
	}

	// Placements that fit no tree of the instance: the request solves.
	long := append(slices.Clone(e.Placement), -1)
	outOfRange := slices.Clone(e.Placement)
	outOfRange[len(outOfRange)-1] = 99
	allHost := slices.Repeat([]int32{-1}, len(e.Placement)) // sensors off their satellites
	for name, p := range map[string][]int32{
		"short":        e.Placement[:len(e.Placement)-1],
		"long":         long,
		"out of range": outOfRange,
		"infeasible":   allHost,
	} {
		bad := repro.NewService(nil, 16)
		if err := bad.AdoptWarm(e.Key, p, meta()); err != nil {
			t.Fatalf("%s: AdoptWarm: %v", name, err)
		}
		checkReplaced(t, name, bad, tree)
	}

	// Placements that fit no tree at all are refused on adoption.
	belowHost := slices.Clone(e.Placement)
	belowHost[0] = -2
	for name, p := range map[string][]int32{"empty": nil, "rank below -1": belowHost} {
		if err := repro.NewService(nil, 16).AdoptWarm(e.Key, p, meta()); err == nil {
			t.Fatalf("AdoptWarm accepted the %s placement", name)
		}
	}
}

// checkReplaced fails unless svc, holding a bad entry for tree's
// instance, solves the instance correctly as a miss and then serves the
// fresh entry as a hit.
func checkReplaced(t *testing.T, name string, svc *repro.Service, tree *repro.Tree) {
	t.Helper()
	ctx := context.Background()
	out, status, err := svc.Solve(ctx, tree)
	if err != nil || status != repro.CacheMiss {
		t.Fatalf("%s entry: status %v, err %v; want a miss that solves", name, status, err)
	}
	checkServed(t, tree, out)
	// The lookup that found the bad entry served nothing: no hit, and
	// the solve that replaced the entry is the one miss.
	if st := svc.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("%s entry: stats %+v; want 0 hits, 1 miss", name, st)
	}
	again, status, err := svc.Solve(ctx, tree)
	if err != nil || status != repro.CacheHit || again != out {
		t.Fatalf("%s entry, second request: status %v, err %v; want a hit on the fresh entry", name, status, err)
	}
	if st := svc.Stats(); st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("%s entry, second request: stats %+v; want 1 hit, 1 miss, 1 entry", name, st)
	}
}

// TestAdoptWarmExactClaimChecked adopts a feasible but suboptimal
// placement, the all-host heuristic's, under the default algorithm's key
// with an exact claim and the instance's true lower bound: a hit that
// re-evaluates above that bound is not served, and the request gets the
// optimum.
func TestAdoptWarmExactClaimChecked(t *testing.T) {
	ctx := context.Background()
	spec := randomSpec(11, 32, 4)
	src := repro.NewService(nil, 16)
	opt, _, err := src.Solve(ctx, mustTree(t, renumbered(spec)))
	if err != nil {
		t.Fatal(err)
	}
	heur, _, err := src.Solve(ctx, mustTree(t, renumbered(spec)), repro.WithAlgorithm(repro.AllHost))
	if err != nil {
		t.Fatal(err)
	}
	if heur.Delay <= opt.Delay {
		t.Fatalf("all-host delay %v, optimum %v: want a suboptimal placement", heur.Delay, opt.Delay)
	}
	var defaultKey string
	var allHost []int32
	for _, e := range src.ExportWarm(16, func(string) string { return "peer" })["peer"] {
		switch e.Outcome.Algorithm {
		case opt.Algorithm:
			defaultKey = e.Key
		case repro.AllHost:
			allHost = e.Placement
		}
	}
	if defaultKey == "" || allHost == nil {
		t.Fatal("export misses the default or the all-host entry")
	}

	svc := repro.NewService(nil, 16)
	claim := &repro.Outcome{Algorithm: opt.Algorithm, Exact: true, LowerBound: opt.LowerBound}
	if err := svc.AdoptWarm(defaultKey, allHost, claim); err != nil {
		t.Fatal(err)
	}
	checkReplaced(t, "suboptimal exact", svc, mustTree(t, spec))
}

// TestResultCacheRetainedBytes is the retained-heap regression guard on
// the result cache: the live heap per stored entry, over 256 cold 64-CRU
// adapted-SSB solves whose trees are dropped. An entry keeps the Outcome
// and a canonical placement, never the tree, its compiled plan or its
// fingerprint memo. The ceiling is the value measured on go1.24/amd64,
// 3,334 B, plus 25%; an entry that kept its tree measured 46,801 B.
func TestResultCacheRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap sizes; the guard runs in the non-race CI job")
	}
	const entries, ceiling = 256, 4170
	ctx := context.Background()
	// 64 entries per shard: the measured entries all stay stored.
	svc := repro.NewService(repro.NewSolver(repro.WithAlgorithm(repro.AdaptedSSB)), 1024)
	solve := func(seed int64) {
		tree := mustTree(t, randomSpec(seed, 64, 4))
		if _, status, err := svc.Solve(ctx, tree); err != nil || status != repro.CacheMiss {
			t.Fatalf("seed %d: status %v, err %v; want a miss", seed, status, err)
		}
	}
	solve(9000) // warm the solver's scratch pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= entries; i++ {
		solve(9000 + int64(i))
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if size := svc.Stats().Size; size != entries+1 {
		t.Fatalf("store holds %d entries, want %d", size, entries+1)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / entries
	t.Logf("result cache retains %d B per entry (%d → %d B)", perEntry, before.HeapAlloc, after.HeapAlloc)
	if perEntry > ceiling {
		t.Fatalf("result cache retains %d B per entry, want at most %d", perEntry, ceiling)
	}
}
