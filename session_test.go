package repro

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/boundcache"
	"repro/internal/exact"
	"repro/internal/exact/exacttest"
	"repro/internal/workload"
)

func fp(v float64) *float64 { return &v }

func sessionTree(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	r := b.Satellite("R")
	bl := b.Satellite("B")
	root := b.Root("fuse", 4, 0)
	left := b.Child(root, "left", 2, 3, 1)
	right := b.Child(root, "right", 3, 2, 1.5)
	b.Sensor(left, "probe-l", r, 0.4)
	b.Sensor(right, "probe-r", bl, 0.4)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSessionMutateResolve(t *testing.T) {
	svc := NewService(nil, 64)
	sess, err := svc.OpenSession(sessionTree(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	out0, status, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheMiss {
		t.Fatalf("first resolve: status %v, want miss", status)
	}
	if err := sess.Mutate(WeightUpdate{Node: "left", HostTime: fp(9)}); err != nil {
		t.Fatal(err)
	}
	if sess.Revision() != 1 {
		t.Fatalf("revision %d, want 1", sess.Revision())
	}
	out1, _, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Cold reference on the mutated tree.
	cold, err := NewSolver().Solve(ctx, sess.Tree())
	if err != nil {
		t.Fatal(err)
	}
	if out1.Delay != cold.Delay {
		t.Fatalf("incremental delay %v != cold delay %v", out1.Delay, cold.Delay)
	}
	if out0.Delay == out1.Delay && out0.Assignment.Key() == out1.Assignment.Key() {
		// Raising left's host time must change something about the solve.
		t.Log("note: mutation did not move the optimum (fine, but unexpected for this instance)")
	}

	// Reverting the mutation returns to revision 0's fingerprint, so the
	// shared cache answers without solving.
	if err := sess.Mutate(WeightUpdate{Node: "left", HostTime: fp(2)}); err != nil {
		t.Fatal(err)
	}
	out2, status, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheHit {
		t.Fatalf("resolve after revert: status %v, want hit", status)
	}
	if out2.Delay != out0.Delay {
		t.Fatalf("reverted delay %v != original %v", out2.Delay, out0.Delay)
	}
}

func TestSessionMutateAtomic(t *testing.T) {
	svc := NewService(nil, 8)
	sess, err := svc.OpenSession(sessionTree(t))
	if err != nil {
		t.Fatal(err)
	}
	fpBefore := sess.Fingerprint()
	err = sess.Mutate(
		WeightUpdate{Node: "left", HostTime: fp(7)},
		WeightUpdate{Node: "no-such-node", HostTime: fp(1)},
	)
	if err == nil {
		t.Fatal("expected error")
	}
	if sess.Revision() != 0 || sess.Fingerprint() != fpBefore {
		t.Fatal("failed Mutate advanced the session")
	}
}

func TestOpenSessionNilTree(t *testing.T) {
	if _, err := NewService(nil, 0).OpenSession(nil); err == nil {
		t.Fatal("expected error")
	}
}

// randomSessionMutation yields a mutation applicable to most revisions;
// streams tolerate rejected rolls.
func randomSessionMutation(rng *rand.Rand, tree *Tree, serial int) Mutation {
	var crus, nonRoot, sensors []string
	for _, id := range tree.Preorder() {
		n := tree.Node(id)
		switch {
		case n.IsLeaf():
			sensors = append(sensors, n.Name)
		default:
			crus = append(crus, n.Name)
			if n.Parent >= 0 {
				nonRoot = append(nonRoot, n.Name)
			}
		}
	}
	switch rng.Intn(8) {
	case 0, 1, 2, 3: // dominant mode: weight drift
		name := crus[rng.Intn(len(crus))]
		return WeightUpdate{Node: name, HostTime: fp(rng.Float64() * 8), SatTime: fp(rng.Float64() * 8)}
	case 4:
		name := sensors[rng.Intn(len(sensors))]
		return WeightUpdate{Node: name, UpComm: fp(rng.Float64() * 3)}
	case 5:
		tag := strconv.Itoa(serial)
		return AttachSubtree{
			Parent: crus[rng.Intn(len(crus))],
			Subtree: &Spec{
				CRUs: []SpecCRU{{Name: "dyn-cru-" + tag, HostTime: rng.Float64() * 4, SatTime: rng.Float64() * 4, Comm: rng.Float64()}},
				Sensors: []SpecSensor{{
					Name: "dyn-probe-" + tag, Parent: "dyn-cru-" + tag,
					Satellite: tree.Satellites()[rng.Intn(len(tree.Satellites()))].Name,
					Comm:      rng.Float64(),
				}},
			},
		}
	case 6:
		if len(nonRoot) == 0 {
			return nil
		}
		return DetachSubtree{Node: nonRoot[rng.Intn(len(nonRoot))]}
	default:
		return SatelliteChange{
			Sensor:    sensors[rng.Intn(len(sensors))],
			Satellite: tree.Satellites()[rng.Intn(len(tree.Satellites()))].Name,
		}
	}
}

// TestSessionEquivalenceProperty is the acceptance property: for random
// mutation sequences, the warm incremental Resolve reports exactly the
// optimum a cold Solve finds on the mutated tree — for the default exact
// adapted SSB and for the warm-consuming exact branch-and-bound alike.
func TestSessionEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	cold := NewSolver()
	for trial := 0; trial < 8; trial++ {
		base := workload.Random(rng, workload.DefaultRandomSpec(14+rng.Intn(10), 3))
		for _, alg := range []Algorithm{AdaptedSSB, BranchBound} {
			svc := NewService(nil, 256)
			sess, err := svc.OpenSession(base, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			serial := 0
			for step := 0; step < 10; step++ {
				m := randomSessionMutation(rng, sess.Tree(), serial)
				if m == nil {
					continue
				}
				serial++
				if err := sess.Mutate(m); err != nil {
					continue // some rolls are legitimately rejected
				}
				warm, _, err := sess.Resolve(ctx)
				if err != nil {
					t.Fatalf("trial %d %s step %d: resolve: %v", trial, alg, step, err)
				}
				ref, err := cold.Solve(ctx, sess.Tree(), WithAlgorithm(alg))
				if err != nil {
					t.Fatalf("trial %d %s step %d: cold solve: %v", trial, alg, step, err)
				}
				if math.Abs(warm.Delay-ref.Delay) > 1e-9 {
					t.Fatalf("trial %d %s step %d: incremental delay %v != cold delay %v",
						trial, alg, step, warm.Delay, ref.Delay)
				}
				if err := warm.Assignment.Validate(sess.Tree()); err != nil {
					t.Fatalf("trial %d %s step %d: infeasible outcome: %v", trial, alg, step, err)
				}
			}
		}
	}
}

// TestSessionWarmHeuristicCacheRules pins the cache-correctness rule for
// warm-started non-exact solves: they may be SERVED from the shared
// store (the deterministic cold answer every caller gets) but their own
// start-dependent results never enter it, so a cold request for the same
// key cannot observe a warm local optimum.
func TestSessionWarmHeuristicCacheRules(t *testing.T) {
	svc := NewService(nil, 64)
	sess, err := svc.OpenSession(sessionTree(t), WithAlgorithm(GreedyHost))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := sess.Resolve(ctx); err != nil { // cold: no warm seed yet
		t.Fatal(err)
	}
	if err := sess.Mutate(WeightUpdate{Node: "left", HostTime: fp(5)}); err != nil {
		t.Fatal(err)
	}
	// This resolve is warm (previous outcome exists) and greedy is not
	// exact: a store lookup is allowed, but the miss must be solved
	// outside the store.
	if _, status, err := sess.Resolve(ctx); err != nil {
		t.Fatal(err)
	} else if status != CacheMiss {
		t.Fatalf("warm heuristic resolve: status %v, want miss", status)
	}
	// A direct cold solve of the same instance+algorithm is a genuine
	// store miss, proving the warm solve left nothing behind.
	if _, status, err := svc.Solve(ctx, sess.Tree(), WithAlgorithm(GreedyHost)); err != nil {
		t.Fatal(err)
	} else if status != CacheMiss {
		t.Fatalf("cold solve after warm: status %v, want miss", status)
	}
	// Reverting to the opening shape revisits a stored key: the warm
	// resolve is served from the store as a hit.
	if err := sess.Mutate(WeightUpdate{Node: "left", HostTime: fp(2)}); err != nil {
		t.Fatal(err)
	}
	if _, status, err := sess.Resolve(ctx); err != nil {
		t.Fatal(err)
	} else if status != CacheHit {
		t.Fatalf("warm resolve of revisited shape: status %v, want hit", status)
	}
}

// seededSessionTrees is the first-resolve corpus: session-drift-shaped
// trees of 20–32 CRUs over 3 satellites.
func seededSessionTrees() []*Tree {
	rng := rand.New(rand.NewSource(22))
	trees := make([]*Tree, 8)
	for i := range trees {
		trees[i] = workload.Random(rng, workload.DefaultRandomSpec(20+i*13/len(trees), 3))
	}
	return trees
}

// TestSessionFirstResolveSeeded: a session's first exact resolve proves
// the optimum (Exact, LowerBound == Delay, pareto-dp's delay and the
// plain search's with a fresh bound cache at the same worker count, an
// assignment that re-evaluates to it). Heuristic sessions have no hint
// on their first resolve: it is the cold solve.
func TestSessionFirstResolveSeeded(t *testing.T) {
	ctx := context.Background()
	trees := seededSessionTrees()
	for _, alg := range []Algorithm{BranchBound, ParallelBnB} {
		workers := 1
		if alg == ParallelBnB {
			workers = runtime.GOMAXPROCS(0)
		}
		for i, tree := range trees {
			sess, err := NewService(nil, 16).OpenSession(tree, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			out, status, err := sess.Resolve(ctx)
			if err != nil {
				t.Fatalf("%s tree %d: %v", alg, i, err)
			}
			if status != CacheMiss || !out.Exact || out.LowerBound != out.Delay {
				t.Fatalf("%s tree %d: status %v, exact %v, lower bound %v, delay %v",
					alg, i, status, out.Exact, out.LowerBound, out.Delay)
			}
			ref, err := NewSolver().Solve(ctx, tree, WithAlgorithm(ParetoDP))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(out.Delay-ref.Delay) > 1e-9*ref.Delay {
				t.Fatalf("%s tree %d: delay %v, pareto-dp %v", alg, i, out.Delay, ref.Delay)
			}
			bd, err := Evaluate(tree, out.Assignment)
			if err != nil || bd.Delay != out.Delay {
				t.Fatalf("%s tree %d: re-evaluates to %v (%v), reports %v", alg, i, bd, err, out.Delay)
			}
			res, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{
				Bounds: boundcache.New(), Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(out.Delay-res.Delay) > 1e-9*res.Delay {
				t.Fatalf("%s tree %d: delay %v, plain search %v", alg, i, out.Delay, res.Delay)
			}
		}
	}

	for _, alg := range []Algorithm{GreedyHost, GreedyTop} {
		for i, tree := range trees {
			sess, err := NewService(nil, 16).OpenSession(tree, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := sess.Resolve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSolver().Solve(ctx, tree, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			if out.Assignment.Key() != ref.Assignment.Key() {
				t.Fatalf("%s tree %d: first resolve %v, cold solve %v", alg, i, out.Delay, ref.Delay)
			}
		}
	}
}

// TestSessionFirstResolveHitSkipsSeed: a second session opened on an
// already solved shape is answered from the result cache, a heuristic
// session on the same shape misses (its key differs), and a direct
// solve still succeeds.
func TestSessionFirstResolveHitSkipsSeed(t *testing.T) {
	ctx := context.Background()
	tree := seededSessionTrees()[0]
	svc := NewService(nil, 16)
	resolve := func(alg Algorithm) CacheStatus {
		t.Helper()
		sess, err := svc.OpenSession(tree, WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		_, status, err := sess.Resolve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return status
	}

	if status := resolve(BranchBound); status != CacheMiss {
		t.Fatalf("first session: status %v, want miss", status)
	}
	if status := resolve(BranchBound); status != CacheHit {
		t.Fatalf("second session: status %v, want hit", status)
	}
	if status := resolve(GreedyHost); status != CacheMiss {
		t.Fatalf("greedy session: status %v, want miss", status)
	}
	if _, err := NewSolver().Solve(ctx, tree, WithAlgorithm(BranchBound)); err != nil {
		t.Fatal(err)
	}
}

// TestSessionsShareServiceBounds: every session of one Service solves
// through the Service's bound cache. With the result store off, a second
// session on an already proven instance reaches the search again, whose
// pre-pass reads the subtree optima the first session proved, and it
// returns the delay proven before. The sessions run the plain search:
// the registered branch-and-bound proves these instances with the DP
// and never reaches its search.
func TestSessionsShareServiceBounds(t *testing.T) {
	ctx := context.Background()
	tree := seededSessionTrees()[0]
	svc := NewService(nil, 0)
	resolve := func() *Outcome {
		t.Helper()
		sess, err := svc.OpenSession(tree, WithAlgorithm(exacttest.PlainSearch))
		if err != nil {
			t.Fatal(err)
		}
		out, status, err := sess.Resolve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if status != CacheMiss || !out.Exact {
			t.Fatalf("status %v, exact %v", status, out.Exact)
		}
		return out
	}
	first := resolve()
	if first.Work == 0 {
		t.Fatal("first session's resolve explored no nodes")
	}
	second := resolve()
	if second.BoundHits == 0 || second.Delay != first.Delay {
		t.Fatalf("second session: bound hits %d, delay %v; want > 0, %v",
			second.BoundHits, second.Delay, first.Delay)
	}
	if st := svc.Bounds().Stats(); st.Stores == 0 || st.Hits == 0 {
		t.Fatalf("service bound cache not shared: %+v", st)
	}
}
