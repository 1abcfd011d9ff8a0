package assign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dwg"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/workload"
)

func TestSolveAdaptedPaperTree(t *testing.T) {
	tree := workload.PaperTree()
	sol, err := Solve(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Assignment.Validate(tree); err != nil {
		t.Fatalf("invalid solution: %v", err)
	}
	// The reported measures must match the evaluated assignment.
	bd, err := eval.Evaluate(tree, sol.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Delay, bd.Delay) || !almost(sol.S, bd.HostTime) || !almost(sol.B, bd.MaxSatLoad) {
		t.Fatalf("solution measures S=%v B=%v delay=%v vs evaluated %v/%v/%v",
			sol.S, sol.B, sol.Delay, bd.HostTime, bd.MaxSatLoad, bd.Delay)
	}
	// Ground truth from the independent exact solver.
	bf, err := exact.BruteForce(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Delay, bf.Delay) {
		t.Fatalf("adapted SSB delay %v != brute force %v", sol.Delay, bf.Delay)
	}
}

func TestSolversAgreeOnScenarios(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree *model.Tree
	}{
		{"epilepsy", workload.Epilepsy()},
		{"snmp", workload.SNMP()},
		{"paper", workload.PaperTree()},
		{"paper-symbolic", workload.PaperTreeSymbolic()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := Build(tc.tree)
			adapted, err := g.SolveAdapted(Options{})
			if err != nil {
				t.Fatal(err)
			}
			pareto, err := exact.Pareto(tc.tree, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !almost(adapted.Delay, pareto.Delay) {
				t.Fatalf("disagreement: adapted=%v pareto=%v", adapted.Delay, pareto.Delay)
			}
		})
	}
}

// TestAllSolversAgreeProperty is the core of experiment E9: the paper's
// adapted SSB algorithm and brute force agree on random instances,
// clustered and scattered alike.
func TestAllSolversAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	for trial := 0; trial < 80; trial++ {
		spec := workload.RandomSpec{
			CRUs:       1 + rng.Intn(12),
			MaxArity:   1 + rng.Intn(3),
			Satellites: 1 + rng.Intn(4),
			Clustered:  trial%2 == 0,
			HostScale:  0.5 + rng.Float64(),
			SatRatio:   0.5 + 3*rng.Float64(),
			CommScale:  rng.Float64() * 2,
			RawFactor:  0.5 + 4*rng.Float64(),
		}
		tree := workload.Random(rng, spec)
		g := Build(tree)

		adapted, err := g.SolveAdapted(Options{})
		if err != nil {
			t.Fatalf("trial %d: adapted: %v\n%s", trial, err, tree.Render())
		}
		bf, err := exact.BruteForce(tree, 0)
		if err != nil {
			t.Fatalf("trial %d: brute: %v", trial, err)
		}
		if !almost(adapted.Delay, bf.Delay) {
			t.Fatalf("trial %d: adapted %v != brute %v (fellback=%v)\n%s",
				trial, adapted.Delay, bf.Delay, adapted.Stats.FellBack, tree.Render())
		}
		// Decoded assignments must evaluate to the reported delay.
		if d := eval.MustDelay(tree, adapted.Assignment); !almost(d, adapted.Delay) {
			t.Fatalf("trial %d: adapted assignment evaluates to %v, reported %v", trial, d, adapted.Delay)
		}
	}
}

func TestScatteredColoursFallBack(t *testing.T) {
	// Build a tree whose colour is split into two bands and whose profiles
	// force a multi-edge bottleneck, exercising the fallback path. Colour
	// s0 appears at leaves 0 and 2; s1 at leaf 1.
	b := model.NewBuilder()
	s0 := b.Satellite("s0")
	s1 := b.Satellite("s1")
	root := b.Root("root", 1, 0)
	a := b.Child(root, "a", 5, 10, 1)
	b.Sensor(a, "xa", s0, 8)
	c := b.Child(root, "c", 5, 10, 1)
	b.Sensor(c, "xc", s1, 8)
	d := b.Child(root, "d", 5, 10, 1)
	b.Sensor(d, "xd", s0, 8)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tree)
	sol, err := g.SolveAdapted(Options{})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := exact.BruteForce(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Delay, bf.Delay) {
		t.Fatalf("adapted %v != brute %v", sol.Delay, bf.Delay)
	}
}

// TestScatteredDefaultSolveBounded runs default solves on seeded trees
// whose satellites' sensors are scattered, not contiguous, at 16–96 CRUs.
// Most of them stall on a multi-band colour and finish with the Pareto DP,
// which takes milliseconds; the 10 s deadline only catches a finish whose
// cost grows with the colour loads' combinations. Each answer must match
// pareto-dp's delay and re-evaluate to the delay it reports; up to 48
// CRUs, budgeted branch-and-bound cross-checks it too.
func TestScatteredDefaultSolveBounded(t *testing.T) {
	const bnbMaxCRUs = 48
	for _, n := range []int{16, 32, 48, 64, 96} {
		solves, fallbacks, bnbChecked := 0, 0, 0
		for sats := 2; sats <= 4; sats++ {
			for seed := int64(1); seed <= 2; seed++ {
				spec := workload.DefaultRandomSpec(n, sats)
				spec.Clustered = false
				tree := workload.Random(rand.New(rand.NewSource(int64(n)*100+int64(sats)*10+seed)), spec)
				name := fmt.Sprintf("%d CRUs, %d satellites, seed %d", n, sats, seed)

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				sol, err := Build(tree).SolveAdaptedContext(ctx, Options{})
				cancel()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				solves++
				if sol.Stats.FellBack {
					fallbacks++
				}
				if d := eval.PointerDelay(tree, sol.Assignment); !within(d, sol.Delay) {
					t.Fatalf("%s: reports delay %v, its assignment evaluates to %v", name, sol.Delay, d)
				}
				dp, err := exact.Pareto(tree, 0)
				if err != nil {
					t.Fatalf("%s: pareto-dp: %v", name, err)
				}
				if !within(sol.Delay, dp.Delay) {
					t.Fatalf("%s: adapted %v != pareto-dp %v", name, sol.Delay, dp.Delay)
				}
				if n > bnbMaxCRUs {
					continue
				}
				bnb, err := exact.BranchAndBound(tree, 1<<18)
				if errors.Is(err, exact.ErrBudget) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: branch-and-bound: %v", name, err)
				}
				bnbChecked++
				if !within(sol.Delay, bnb.Delay) {
					t.Fatalf("%s: adapted %v != branch-and-bound %v", name, sol.Delay, bnb.Delay)
				}
			}
		}
		if 2*fallbacks <= solves {
			t.Errorf("%d CRUs: %d of %d solves fell back, want most", n, fallbacks, solves)
		}
		if n <= bnbMaxCRUs && bnbChecked == 0 {
			t.Errorf("%d CRUs: branch-and-bound completed on no tree", n)
		}
	}
}

// within reports whether a and b agree to 1e-9 relative.
func within(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

func TestDisableExpansionStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		tree := workload.Random(rng, workload.DefaultRandomSpec(1+rng.Intn(10), 1+rng.Intn(3)))
		g := Build(tree)
		sol, err := g.SolveAdapted(Options{DisableExpansion: true})
		if err != nil {
			t.Fatal(err)
		}
		bf, err := exact.BruteForce(tree, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(sol.Delay, bf.Delay) {
			t.Fatalf("trial %d: %v != %v", trial, sol.Delay, bf.Delay)
		}
	}
}

func TestTinyExpansionBudgetStillExact(t *testing.T) {
	tree := workload.PaperTree()
	sol, err := Build(tree).SolveAdapted(Options{MaxExpandedEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := exact.BruteForce(tree, 0)
	if !almost(sol.Delay, bf.Delay) {
		t.Fatalf("budget-1 solve %v != %v", sol.Delay, bf.Delay)
	}
}

func TestExpansionHappensOnEngineeredInstance(t *testing.T) {
	// Colour s0 owns a two-sensor chain with balanced β so the bottleneck
	// colour's weight is spread over two edges of the topmost path —
	// Figure 9's situation, requiring an expansion.
	b := model.NewBuilder()
	s0 := b.Satellite("s0")
	s1 := b.Satellite("s1")
	root := b.Root("root", 1, 0)
	u := b.Child(root, "u", 4, 6, 1)
	b.Sensor(u, "xu", s0, 6)
	v := b.Child(root, "v", 4, 6, 1)
	b.Sensor(v, "xv", s0, 6)
	w := b.Child(root, "w", 1, 1, 0.2)
	b.Sensor(w, "xw", s1, 0.2)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tree)
	sol, err := g.SolveAdapted(Options{})
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := exact.BruteForce(tree, 0)
	if !almost(sol.Delay, bf.Delay) {
		t.Fatalf("delay %v != %v", sol.Delay, bf.Delay)
	}
	if sol.Stats.Expansions == 0 && !sol.Stats.FellBack {
		t.Error("engineered instance should trigger an expansion (or fallback)")
	}
}

// TestFallBackAfterExpansion stalls the loop after an expansion. Colour
// s0's contiguous band (u, v) is the first spread-out bottleneck and
// expands; colour s1's sensors a and c lie on either side of it, two
// bands, so when s1 stalls the solver falls back to the Pareto DP. The s0
// base edges are disabled by then, so the optimum the DP finds below the
// loop's candidate crosses tree edges the loop could only reach through
// an s0 super-edge.
func TestFallBackAfterExpansion(t *testing.T) {
	b := model.NewBuilder()
	s0 := b.Satellite("s0")
	s1 := b.Satellite("s1")
	root := b.Root("root", 1, 0)
	for _, n := range []struct {
		name       string
		h, s, c, x float64
		sat        model.SatelliteID
	}{
		{"a", 2, 7, 1, 9, s1},
		{"u", 2, 10, 2, 9, s0},
		{"v", 4, 12, 1, 1, s0},
		{"c", 1, 10, 1, 7, s1},
	} {
		cru := b.Child(root, n.name, n.h, n.s, n.c)
		b.Sensor(cru, "x"+n.name, n.sat, n.x)
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Build(tree).SolveAdapted(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Expansions < 1 || !sol.Stats.FellBack {
		t.Fatalf("stats %+v: want an expansion and a fallback in one solve", sol.Stats)
	}
	bf, err := exact.BruteForce(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Delay, bf.Delay) {
		t.Fatalf("delay %v != brute force %v", sol.Delay, bf.Delay)
	}
	if last := sol.Trace[len(sol.Trace)-1]; !(sol.Objective < last.Candidate) {
		t.Errorf("objective %v, loop candidate %v: the Pareto DP finish should have improved on it",
			sol.Objective, last.Candidate)
	}
}

func TestWeightedObjectives(t *testing.T) {
	// λ sweep (E11): for every λ the adapted solver must agree with the
	// weighted Pareto DP; λ=1 minimises host time alone (the topmost cut).
	tree := workload.PaperTree()
	g := Build(tree)
	for _, l := range []float64{0, 0.25, 0.5, 0.75, 1} {
		wts := dwg.Lambda(l)
		adapted, err := g.SolveAdapted(Options{Weights: wts})
		if err != nil {
			t.Fatalf("λ=%v: %v", l, err)
		}
		dp, err := exact.ParetoWeighted(context.Background(), tree, wts, 0)
		if err != nil {
			t.Fatalf("λ=%v: %v", l, err)
		}
		bd, err := eval.Evaluate(tree, dp.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if obj := wts.Value(bd.HostTime, bd.MaxSatLoad); !almost(adapted.Objective, obj) {
			t.Errorf("λ=%v: adapted %v != pareto %v", l, adapted.Objective, obj)
		}
	}
	// λ=1: the optimum host time is the must-host closure h1+h2+h3 = 10.
	sol, err := g.SolveAdapted(Options{Weights: dwg.Lambda(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.S, 10) {
		t.Errorf("λ=1 host time = %v, want 10", sol.S)
	}
}

func TestBadWeightsRejected(t *testing.T) {
	g := Build(workload.PaperTree())
	if _, err := g.SolveAdapted(Options{Weights: dwg.Weights{WS: -1, WB: 1}}); err == nil {
		t.Error("negative weights accepted by SolveAdapted")
	}
	nan := dwg.Weights{WS: math.NaN(), WB: 1}
	if _, err := exact.ParetoWeighted(context.Background(), g.Tree(), nan, 0); err == nil {
		t.Error("NaN weights accepted by ParetoWeighted")
	}
}

func TestTraceIsPopulated(t *testing.T) {
	sol, err := Solve(workload.PaperTree())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Trace) == 0 {
		t.Fatal("no trace entries")
	}
	last := sol.Trace[len(sol.Trace)-1]
	if last.Note == "" {
		t.Errorf("last trace entry should record the stop reason, got %+v", last)
	}
	if sol.Stats.Iterations != len(sol.Trace) && sol.Stats.Iterations != len(sol.Trace)+1 {
		t.Errorf("iterations %d inconsistent with %d trace entries", sol.Stats.Iterations, len(sol.Trace))
	}
	if sol.Stats.FinalEdges <= 0 {
		t.Errorf("FinalEdges = %d", sol.Stats.FinalEdges)
	}
}

func TestCutChildrenConsistent(t *testing.T) {
	tree := workload.PaperTree()
	sol, err := Solve(tree)
	if err != nil {
		t.Fatal(err)
	}
	// CutChildren must match the assignment's cut edges.
	want := map[model.NodeID]bool{}
	for _, e := range sol.Assignment.CutEdges(tree) {
		want[e[1]] = true
	}
	if len(want) != len(sol.CutChildren) {
		t.Fatalf("cut children %v vs cut edges %v", sol.CutChildren, want)
	}
	for _, c := range sol.CutChildren {
		if !want[c] {
			t.Errorf("cut child %d not a cut edge", c)
		}
	}
}

func TestMinSigmaPathMatchesTopmost(t *testing.T) {
	// With strictly positive h, the first min-σ path is the topmost cut:
	// its decode equals the plan's TopmostAssignment.
	tree := workload.PaperTree()
	g := Build(tree)
	w := newWorkGraph(g)
	path, ok := w.minSigmaPath()
	if !ok {
		t.Fatal("no min-σ path")
	}
	var ids []int
	ids = append(ids, path...)
	asg, err := g.Decode(ids)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Compile(tree).TopmostAssignment()
	if asg.Key() != want.Key() {
		t.Fatalf("min-σ decode:\n%s\nwant topmost:\n%s", asg.Describe(tree), want.Describe(tree))
	}
}
