package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/assign"
	"repro/internal/bokhari"
	"repro/internal/chain"
	"repro/internal/dagcru"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E14Bokhari runs the §2 related-work baseline: Bokhari's original
// free-satellite, bottleneck-objective mapping next to the paper's pinned,
// delay-objective solution, quantifying both differences the paper lists.
func E14Bokhari() (*Table, error) {
	t := &Table{
		ID: "E14", Title: "§2 baseline: Bokhari's original mapping vs the paper's",
		Paper:   "the paper differs from Bokhari in (1) pinned sensors — a colouring scheme replaces free satellites — and (2) the end-to-end delay objective replacing the bottleneck",
		Columns: []string{"instance", "bokhari bottleneck", "free cut pinned-feasible", "paper delay", "delay of bokhari cut"},
	}
	rng := rand.New(rand.NewSource(14))
	instances := []struct {
		name string
		tree *model.Tree
	}{
		{"paper", workload.PaperTree()},
		{"epilepsy", workload.Epilepsy()},
		{"snmp", workload.SNMP()},
		{"random-32", workload.Random(rng, workload.DefaultRandomSpec(32, 4))},
	}
	infeasible := 0
	for _, inst := range instances {
		free, err := bokhari.SolveSB(inst.tree)
		if err != nil {
			return nil, err
		}
		// Cross-check the baseline's two solvers.
		th, err := bokhari.SolveThreshold(inst.tree)
		if err != nil {
			return nil, err
		}
		if math.Abs(free.Bottleneck-th.Bottleneck) > 1e-9 {
			return nil, fmt.Errorf("bokhari solvers disagree on %s: %v vs %v",
				inst.name, free.Bottleneck, th.Bottleneck)
		}
		sol, err := assign.Solve(inst.tree)
		if err != nil {
			return nil, err
		}
		feasible := "yes"
		delayOfCut := "-"
		if d, ok := bokhari.DelayOfCut(inst.tree, free.Cut); ok {
			delayOfCut = trimFloat(d)
			if d+1e-9 < sol.Delay {
				return nil, fmt.Errorf("bokhari cut beat the optimum on %s", inst.name)
			}
		} else {
			feasible = "no"
			infeasible++
		}
		t.AddRow(inst.name, free.Bottleneck, feasible, sol.Delay, delayOfCut)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("on %d of %d instances Bokhari's free placement is not even feasible once sensors are pinned — the reason the paper introduces the colouring scheme; where feasible, its delay is never below the SSB optimum", infeasible, len(instances)))
	return t, nil
}

// E15Throughput pushes frame streams through the simulator: the
// latency-optimal assignment is compared against the baselines at several
// arrival rates, an extension beyond the paper's single-frame model.
func E15Throughput() (*Table, error) {
	t := &Table{
		ID: "E15", Title: "extension: pipelined throughput by assignment policy",
		Paper:   "(extension — the paper optimises single-frame delay; streams expose the bottleneck-resource view)",
		Columns: []string{"policy", "1-frame delay", "16-frame makespan", "throughput fps", "worst latency"},
	}
	tree := workload.Epilepsy()
	sol, err := assign.Solve(tree)
	if err != nil {
		return nil, err
	}
	policies := []struct {
		name string
		asg  *model.Assignment
	}{
		{"adapted-ssb", sol.Assignment},
		{"all-host", model.NewAssignment(tree)},
		{"max-distribution", model.Compile(tree).TopmostAssignment()},
	}
	const frames = 16
	const interval = 2.0
	for _, pol := range policies {
		one, err := sim.Run(tree, pol.asg, sim.Config{Mode: sim.Overlapped})
		if err != nil {
			return nil, err
		}
		stream, err := sim.Run(tree, pol.asg, sim.Config{Mode: sim.Overlapped, Frames: frames, Interval: interval})
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for _, f := range stream.Frames {
			if l := f.Latency(); l > worst {
				worst = l
			}
		}
		t.AddRow(pol.name, one.Makespan, stream.Makespan,
			fmt.Sprintf("%.4f", stream.Throughput), worst)
	}
	t.Notes = append(t.Notes,
		"the latency-optimal cut also sustains the stream best here; policies that pile work on one resource watch per-frame latency grow with queueing")
	return t, nil
}

// E17DAG exercises the §6 future-work DAG model: tree-shaped DAGs must
// reproduce the tree optimum, and the GA tracks the exact optimum on small
// true DAGs.
func E17DAG() (*Table, error) {
	t := &Table{
		ID: "E17", Title: "§6 future work: DAG-structured reasoning procedures",
		Paper:   "§6 plans a DAG-tasks model solved with heuristics (B&B, GA) since no polynomial algorithm is expected",
		Columns: []string{"instance", "nodes", "exact delay", "GA delay", "gap", "tree-anchored"},
	}
	// Tree-shaped DAGs: anchored to the tree solvers.
	for _, tc := range []struct {
		name string
		tree *model.Tree
	}{
		{"epilepsy-as-dag", workload.Epilepsy()},
		{"snmp-as-dag", workload.SNMP()},
	} {
		g, err := dagcru.FromTree(tc.tree)
		if err != nil {
			return nil, err
		}
		_, exactD, err := dagcru.BruteForce(g, 0)
		if err != nil {
			return nil, err
		}
		treeOpt, err := assign.Solve(tc.tree)
		if err != nil {
			return nil, err
		}
		anchored := "yes"
		if math.Abs(exactD-treeOpt.Delay) > 1e-9 {
			anchored = "NO (MISMATCH)"
		}
		_, gaD := dagcru.Genetic(g, 7, 40, 60)
		t.AddRow(tc.name, g.Len(), exactD, gaD,
			fmt.Sprintf("%.2f%%", 100*(gaD-exactD)/exactD), anchored)
	}
	// A genuine DAG: shared feature extraction feeding two classifiers.
	b := dagcru.NewBuilder()
	box := b.Satellite("box")
	filter := b.CRU("filter", 2, 5, 1)
	fx := b.CRU("featX", 1.5, 4, 0.5)
	fy := b.CRU("featY", 1.5, 4, 0.5)
	fuse := b.CRU("fuse", 1, 3, 0)
	probe := b.Sensor("probe", box, 6)
	b.Feed(probe, filter)
	b.Feed(filter, fx)
	b.Feed(filter, fy)
	b.Feed(fx, fuse)
	b.Feed(fy, fuse)
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	_, exactD, err := dagcru.BruteForce(g, 0)
	if err != nil {
		return nil, err
	}
	_, gaD := dagcru.Genetic(g, 7, 40, 60)
	t.AddRow("shared-filter diamond", g.Len(), exactD, gaD,
		fmt.Sprintf("%.2f%%", 100*(gaD-exactD)/exactD), "n/a (true DAG)")
	t.Notes = append(t.Notes,
		"the diamond shares one filter between two feature CRUs — inexpressible as a tree; its uplink is paid once, which the tree model cannot represent")
	return t, nil
}

// E16Chain runs the §2 chain-partitioning related-work baselines and
// cross-validates the three solvers.
func E16Chain() (*Table, error) {
	t := &Table{
		ID: "E16", Title: "§2 related work: chain-to-chain partitioning",
		Paper:   "Bokhari's chain-on-chain partitioning and its improved algorithms (Hansen–Lih, probe methods) are the other problem family §2 surveys",
		Columns: []string{"tasks", "processors", "comm", "bottleneck", "dp==probe==dwg"},
	}
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{8, 16, 32, 64} {
		for _, withComm := range []bool{false, true} {
			p := &chain.Problem{Weights: make([]float64, n), K: 4}
			for i := range p.Weights {
				p.Weights[i] = float64(1 + rng.Intn(30))
			}
			comm := "no"
			if withComm {
				comm = "yes"
				p.Comm = make([]float64, n-1)
				for i := range p.Comm {
					p.Comm[i] = float64(rng.Intn(10))
				}
			}
			dp, err := chain.DP(p)
			if err != nil {
				return nil, err
			}
			pr, err := chain.Probe(p)
			if err != nil {
				return nil, err
			}
			dw, err := chain.DWG(p)
			if err != nil {
				return nil, err
			}
			agree := "yes"
			if math.Abs(dp.Bottleneck-pr.Bottleneck) > 1e-9 || math.Abs(dp.Bottleneck-dw.Bottleneck) > 1e-9 {
				agree = "NO (MISMATCH)"
			}
			t.AddRow(n, p.K, comm, dp.Bottleneck, agree)
		}
	}
	return t, nil
}
