package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/workload"
)

// P4ParallelCores measures the parallel kernels: the branch-and-bound
// engine at increasing worker counts on one large instance
// (cores-vs-wall-time for a single solve), and the batch delay kernel's
// per-assignment cost as the lane width grows (the amortisation the
// genetic population and annealing pack ride on). The sequential search
// is the 0-worker baseline row; every solve is checked against its delay
// — bit for bit at one worker, to tolerance above — so the table doubles
// as an exactness probe.
//
// Speedup is only observable when the host exposes >1 core; the
// GOMAXPROCS note records the machine so single-core CI runs are not
// misread as a scaling regression.
func P4ParallelCores() (*Table, error) {
	rng := rand.New(rand.NewSource(11))
	tree := workload.Random(rng, workload.DefaultRandomSpec(48, 3))
	c := model.Compile(tree)
	ctx := context.Background()

	// Every row runs the one branch-and-bound engine; only the worker
	// count differs. Workers 0 is the sequential search.
	solve := func(workers int) (*exact.Result, error) {
		return exact.BranchAndBoundOpts(ctx, tree, exact.BnBOptions{Workers: workers, MaxNodes: 1 << 28})
	}
	seq, err := solve(0)
	if err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}

	tbl := &Table{
		ID:      "P4",
		Title:   "parallel kernels: cores vs wall-time, batch lanes vs eval cost",
		Paper:   "engineering extension: ISSUE 8 parallel search, not a paper artefact",
		Columns: []string{"path", "width", "ns/op", "speedup"},
	}

	// Work-stealing branch-and-bound: one large solve at each worker count.
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	// One worker is the sequential search, bit for bit. More workers
	// snapshot rounding residue at fork points, so their delays agree to
	// relative precision, not bits.
	tol := 1e-9 * (1 + seq.Delay)
	var solveErr error
	timeSolves := func(workers int) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := solve(workers)
				if err != nil {
					solveErr = err
					return
				}
				d := res.Delay - seq.Delay
				if (workers <= 1 && d != 0) || d > tol || d < -tol {
					solveErr = fmt.Errorf("workers=%d delay %g != sequential %g", workers, res.Delay, seq.Delay)
					return
				}
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	seqNS := timeSolves(0)
	if solveErr != nil {
		return nil, solveErr
	}
	tbl.AddRow("bnb-sequential", 1, fmt.Sprintf("%.0f", seqNS), "1.0")
	tbl.AddMetric("bnb/sequential/ns_op", seqNS, "ns/op")
	for _, w := range counts {
		ns := timeSolves(w)
		if solveErr != nil {
			return nil, solveErr
		}
		tbl.AddRow("bnb-parallel", w, fmt.Sprintf("%.0f", ns), fmt.Sprintf("%.2f", seqNS/ns))
		tbl.AddMetric(fmt.Sprintf("bnb/w%d/ns_op", w), ns, "ns/op")
		tbl.AddMetric(fmt.Sprintf("bnb/w%d/speedup", w), seqNS/ns, "x")
	}

	// Batch delay kernel: per-assignment cost at increasing lane widths on
	// the same compiled plan. Lane 1 is the amortisation baseline (the
	// plain FlatDelay loop the heuristics used before batching).
	n := c.Len()
	fr := eval.GetFrame()
	base := make([]model.Location, n)
	c.BaseLocations(base)
	oneNS := func() float64 {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.FlatDelay(c, base, fr)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}()
	eval.PutFrame(fr)
	tbl.AddRow("eval-single", 1, fmt.Sprintf("%.0f", oneNS), "1.0")
	tbl.AddMetric("eval/single/ns_op", oneNS, "ns/op")
	for _, lanes := range []int{4, 16, 64} {
		locs := make([][]model.Location, lanes)
		for i := range locs {
			locs[i] = make([]model.Location, n)
			if i%2 == 0 {
				c.BaseLocations(locs[i])
			} else {
				c.TopmostLocations(locs[i])
			}
		}
		out := make([]float64, lanes)
		bf := eval.GetBatchFrame()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.FlatDelayBatch(c, locs, out, bf)
			}
		})
		eval.PutBatchFrame(bf)
		perLane := float64(r.T.Nanoseconds()) / float64(r.N) / float64(lanes)
		tbl.AddRow("eval-batch", lanes, fmt.Sprintf("%.0f", perLane), fmt.Sprintf("%.2f", oneNS/perLane))
		tbl.AddMetric(fmt.Sprintf("eval/lanes%d/ns_op", lanes), perLane, "ns/op per lane")
		tbl.AddMetric(fmt.Sprintf("eval/lanes%d/speedup", lanes), oneNS/perLane, "x")
	}

	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; bnb speedup above 1 needs real cores, eval-batch amortisation does not", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("instance: %d tree nodes, %d satellites, optimum delay %s, sequential explored %d nodes",
			len(tree.Preorder()), len(tree.Satellites()), trimFloat(seq.Delay), seq.Explored),
	)
	return tbl, nil
}
