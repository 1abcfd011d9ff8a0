package exact_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

// exploredTree returns instance i of the never-rises corpus: 14–32 CRUs
// over 3–4 satellites, every third one clustered.
func exploredTree(i int) *model.Tree {
	spec := workload.DefaultRandomSpec(14+18*i/11, 3+i%2)
	spec.Clustered = i%3 == 0
	return workload.Random(rand.New(rand.NewSource(int64(2000+i))), spec)
}

type exploredRow struct {
	delay    float64
	explored int
}

// exploredGolden is the optimal delay and explored node count of each
// corpus instance, cold and warm (a greedy incumbent), recorded with the
// earlier bound: partial host time + forced host time + the largest
// committed satellite load.
var exploredGolden = [12]struct{ cold, warm exploredRow }{
	{exploredRow{38.78975766619893, 325}, exploredRow{38.78975766619894, 303}},
	{exploredRow{36.191797509794284, 79}, exploredRow{36.191797509794284, 73}},
	{exploredRow{61.020820611784956, 96}, exploredRow{61.020820611784956, 94}},
	{exploredRow{41.33770345698539, 870}, exploredRow{41.33770345698541, 569}},
	{exploredRow{61.85285404963799, 206}, exploredRow{61.85285404963799, 206}},
	{exploredRow{58.41186960488088, 528}, exploredRow{58.41186960488086, 376}},
	{exploredRow{60.60406279019065, 12442}, exploredRow{60.604062790190625, 12141}},
	{exploredRow{74.92889871781637, 223}, exploredRow{74.92889871781637, 223}},
	{exploredRow{84.76326789195593, 1506}, exploredRow{84.76326789195595, 1483}},
	{exploredRow{56.507927284853565, 26202}, exploredRow{56.50792728485351, 23330}},
	{exploredRow{94.81244834159386, 3518}, exploredRow{94.81244834159386, 3518}},
	{exploredRow{83.51235295665057, 2443}, exploredRow{83.51235295665059, 2347}},
}

// TestBranchAndBoundExploredNeverRises: a tighter admissible bound keeps
// every optimum and only ever prunes more. On the fixed corpus the delay
// matches the golden table, the explored count is never above it, and it
// is strictly below it on most solves.
func TestBranchAndBoundExploredNeverRises(t *testing.T) {
	ctx := context.Background()
	fewer, solves := 0, 0
	for i, g := range exploredGolden {
		tree := exploredTree(i)
		cold, err := exact.BranchAndBound(tree, 0)
		if err != nil {
			t.Fatalf("instance %d cold: %v", i, err)
		}
		warm, err := exact.BranchAndBoundFrom(ctx, tree, 0, heuristics.Greedy(tree, heuristics.FromTopmost).Assignment)
		if err != nil {
			t.Fatalf("instance %d warm: %v", i, err)
		}
		for _, s := range []struct {
			name string
			got  *exact.Result
			want exploredRow
		}{{"cold", cold, g.cold}, {"warm", warm, g.warm}} {
			if !near(s.got.Delay, s.want.delay) {
				t.Fatalf("instance %d %s: delay %v, golden %v", i, s.name, s.got.Delay, s.want.delay)
			}
			if s.got.Explored > s.want.explored {
				t.Errorf("instance %d %s: explored %d nodes, golden %d", i, s.name, s.got.Explored, s.want.explored)
			}
			if s.got.Explored < s.want.explored {
				fewer++
			}
			solves++
		}
	}
	if 2*fewer <= solves {
		t.Errorf("explored fewer nodes than golden on %d of %d solves, want most", fewer, solves)
	}
}

// TestRootLowerBoundAdmissible: the lower bound reported with the first
// incumbent — the forced host time plus the largest colour floor — lies
// between the forced host time and the optimum, and is strictly above the
// forced host time on most instances. A best-effort solve cut short by
// its node budget reports a bound in the same range.
func TestRootLowerBoundAdmissible(t *testing.T) {
	ctx := context.Background()
	trees := []*model.Tree{workload.PaperTree()}
	for seed := int64(1); seed <= 10; seed++ {
		spec := workload.DefaultRandomSpec(10+2*int(seed), 2+int(seed)%3)
		spec.Clustered = seed%2 == 0
		trees = append(trees, workload.Random(rand.New(rand.NewSource(seed)), spec))
	}
	tighter := 0
	for i, tree := range trees {
		c := model.Compile(tree)
		forced := c.Forced[c.RootPos]
		opt, err := exact.Pareto(tree, 0)
		if err != nil {
			t.Fatalf("tree %d: pareto-dp: %v", i, err)
		}
		var first *core.Incumbent
		if _, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{
			OnIncumbent: func(inc core.Incumbent) {
				if first == nil {
					first = &inc
				}
			},
		}); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if first == nil {
			t.Fatalf("tree %d: no incumbent streamed", i)
		}
		if lb := first.LowerBound; lb < forced || lb > opt.Delay+1e-9 {
			t.Fatalf("tree %d: first incumbent's lower bound %v outside [forced %v, optimum %v]", i, lb, forced, opt.Delay)
		}
		if first.LowerBound > forced {
			tighter++
		}

		part, err := exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{MaxNodes: 2, BestEffort: true})
		if err != nil {
			t.Fatalf("tree %d: best effort: %v", i, err)
		}
		if lb := part.LowerBound; lb < forced || lb > opt.Delay+1e-9 {
			t.Fatalf("tree %d: best-effort lower bound %v outside [forced %v, optimum %v]", i, lb, forced, opt.Delay)
		}
	}
	if 2*tighter <= len(trees) {
		t.Errorf("root bound above the forced host time on %d of %d trees, want most", tighter, len(trees))
	}
}
