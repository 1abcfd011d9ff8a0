package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/exact"
	"repro/internal/workload"
)

// P4ParallelCores measures the branch-and-bound engine at increasing
// worker counts on one large instance (cores-vs-wall-time for a single
// solve). The sequential search is the 0-worker baseline row; every solve
// is checked against its delay — bit for bit at one worker, to tolerance
// above — so the table doubles as an exactness probe.
//
// Speedup is only observable when the host exposes >1 core; the
// GOMAXPROCS note records the machine so single-core CI runs are not
// misread as a scaling regression.
func P4ParallelCores() (*Table, error) {
	rng := rand.New(rand.NewSource(11))
	tree := workload.Random(rng, workload.DefaultRandomSpec(48, 3))
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
		Title:   "parallel branch-and-bound: cores vs wall-time",
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

	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; bnb speedup above 1 needs real cores", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("instance: %d tree nodes, %d satellites, optimum delay %s, sequential explored %d nodes",
			len(tree.Preorder()), len(tree.Satellites()), trimFloat(seq.Delay), seq.Explored),
	)
	return tbl, nil
}
