// Benchmarks, one per reproduced paper artefact (the experiments registered
// in internal/bench). Each BenchmarkEn_* times the computational core of
// experiment En; `go test -bench=. -benchmem` therefore sweeps the whole
// evaluation. cmd/crbench renders the corresponding tables.
package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/assign"
	"repro/internal/bench"
	"repro/internal/bokhari"
	"repro/internal/chain"
	"repro/internal/dagcru"
	"repro/internal/dwg"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkE1_Figure4SSB times the SSB algorithm on the Figure-4 graph.
func BenchmarkE1_Figure4SSB(b *testing.B) {
	g, src, dst := workload.Figure4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dwg.SSB(g, src, dst, dwg.Default); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_AssignmentGraph times the Figure-6 dual construction.
func BenchmarkE3_AssignmentGraph(b *testing.B) {
	tree := workload.PaperTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		assign.Build(tree)
	}
}

// BenchmarkE4_Labelling times the σ/β labelling on the symbolic tree.
func BenchmarkE4_Labelling(b *testing.B) {
	tree := workload.PaperTreeSymbolic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		assign.Build(tree)
	}
}

// BenchmarkE5_AdaptedSSB times the full §5.4 solve of the paper tree.
func BenchmarkE5_AdaptedSSB(b *testing.B) {
	tree := workload.PaperTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := assign.Solve(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_Epilepsy times the motivating scenario end to end.
func BenchmarkE6_Epilepsy(b *testing.B) {
	tree := workload.Epilepsy()
	solver := repro.NewSolver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(context.Background(), tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_GenericSSBScaling sweeps the generic SSB algorithm over DWG
// sizes (the §4.2 complexity claim).
func BenchmarkE7_GenericSSBScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		g, src, dst := workload.RandomDWG(rand.New(rand.NewSource(1)), n, 4*n)
		b.Run(size(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dwg.SSB(g, src, dst, dwg.Default); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_AdaptedScaling sweeps the adapted solver over tree sizes
// (the §5.4 complexity claim), and pareto-dp, which shares its frontier
// kernel, on the same trees.
func BenchmarkE8_AdaptedScaling(b *testing.B) {
	for _, n := range []int{15, 63, 255} {
		tree := workload.Random(rand.New(rand.NewSource(2)), workload.DefaultRandomSpec(n, 4))
		b.Run(size(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := assign.Solve(tree); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size(n)+"-pareto-dp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exact.Pareto(tree, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9_SolverAgreement times the three agreeing exact solvers on the
// same instance (the cross-validation workload).
func BenchmarkE9_SolverAgreement(b *testing.B) {
	tree := workload.Random(rand.New(rand.NewSource(3)), workload.DefaultRandomSpec(12, 3))
	b.Run("adapted-ssb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assign.Solve(tree); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pareto-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.Pareto(tree, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.BruteForce(tree, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10_FutureWork times the §6 future-work solvers.
func BenchmarkE10_FutureWork(b *testing.B) {
	tree := workload.Random(rand.New(rand.NewSource(4)), workload.DefaultRandomSpec(31, 4))
	b.Run("branch-and-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.BranchAndBound(tree, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("genetic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heuristics.Genetic(tree, heuristics.GeneticConfig{Seed: int64(i)})
		}
	})
}

// BenchmarkE11_LambdaSweep times a full λ sweep on the paper tree.
func BenchmarkE11_LambdaSweep(b *testing.B) {
	g := assign.Build(workload.PaperTree())
	lambdas := []float64{0, 0.25, 0.5, 0.75, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, l := range lambdas {
			if _, err := g.SolveAdapted(assign.Options{Weights: dwg.Lambda(l)}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE12_SpeedRatio times the heterogeneity sweep on the epilepsy
// scenario.
func BenchmarkE12_SpeedRatio(b *testing.B) {
	base := workload.Epilepsy()
	ratios := []float64{0.25, 1, 4, 16}
	solver := repro.NewSolver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range ratios {
			tree := base.ScaleProfiles(1, r, 1)
			if _, err := solver.Solve(context.Background(), tree); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE13_SimValidation times the discrete-event simulator in both
// modes on the paper tree's optimal assignment.
func BenchmarkE13_SimValidation(b *testing.B) {
	tree := workload.PaperTree()
	sol, err := assign.Solve(tree)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("barrier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(tree, sol.Assignment, sim.Config{Mode: sim.PaperBarrier}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("overlapped-4frames", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := sim.Config{Mode: sim.Overlapped, Frames: 4, Interval: 1}
			if _, err := sim.Run(tree, sol.Assignment, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE14_BokhariBaseline times the §2 baseline (free satellites,
// bottleneck objective) on the paper tree: both baseline solvers.
func BenchmarkE14_BokhariBaseline(b *testing.B) {
	tree := workload.PaperTree()
	b.Run("sb-graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bokhari.SolveSB(tree); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("threshold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bokhari.SolveThreshold(tree); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE15_Throughput times a 16-frame pipelined simulation.
func BenchmarkE15_Throughput(b *testing.B) {
	tree := workload.Epilepsy()
	sol, err := assign.Solve(tree)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Mode: sim.Overlapped, Frames: 16, Interval: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tree, sol.Assignment, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16_ChainPartitioning times the related-work chain solvers.
func BenchmarkE16_ChainPartitioning(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	p := &chain.Problem{Weights: make([]float64, 48), Comm: make([]float64, 47), K: 6}
	for i := range p.Weights {
		p.Weights[i] = float64(1 + rng.Intn(30))
	}
	for i := range p.Comm {
		p.Comm[i] = float64(rng.Intn(10))
	}
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chain.DP(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chain.Probe(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dwg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chain.DWG(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE17_DAGExtension times the §6 DAG model solvers on the
// epilepsy instance converted to a DAG.
func BenchmarkE17_DAGExtension(b *testing.B) {
	g, err := dagcru.FromTree(workload.Epilepsy())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := dagcru.BruteForce(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("genetic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dagcru.Genetic(g, int64(i), 40, 60)
		}
	})
}

// BenchmarkExperimentTables runs the fast experiment-table generators end
// to end (the slow scaling tables E7–E10 are covered by the dedicated
// benchmarks above).
func BenchmarkExperimentTables(b *testing.B) {
	fast := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E11", "E13", "E14", "E16"}
	for i := 0; i < b.N; i++ {
		for _, id := range fast {
			e, ok := bench.Find(id)
			if !ok {
				b.Fatalf("missing %s", id)
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func size(n int) string {
	switch {
	case n < 10:
		return "n=00" + string('0'+byte(n))
	case n < 100:
		return "n=0" + itoa(n)
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
