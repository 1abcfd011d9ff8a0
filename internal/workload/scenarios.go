package workload

import (
	"repro/internal/dwg"
	"repro/internal/model"
)

// Figure4 reconstructs the doubly weighted graph of the paper's Figure 4:
// three nodes S→M→T with four parallel ⟨σ,β⟩ edges on each side. Running
// the SSB algorithm on it reproduces the printed trace (candidates ∞ → 29 →
// 20, termination when the min-S weight 33 exceeds the candidate 20, and
// optimum 20 on the ⟨5,10⟩–⟨5,10⟩ path).
func Figure4() (g *dwg.Graph, src, dst int) {
	g = dwg.New(3)
	const s, m, t = 0, 1, 2
	g.AddEdge(s, m, 5, 10)
	g.AddEdge(s, m, 6, 8)
	g.AddEdge(s, m, 15, 10)
	g.AddEdge(s, m, 20, 9)
	g.AddEdge(m, t, 4, 20)
	g.AddEdge(m, t, 5, 10)
	g.AddEdge(m, t, 6, 12)
	g.AddEdge(m, t, 27, 8)
	return g, s, t
}

// Epilepsy builds the epilepsy tele-monitoring procedure of the paper's
// Figure 1: a patient's mobile terminal (host) connected to two sensor
// boxes; box-1 carries the ECG electrode, box-2 two accelerometers. The
// reasoning tree detects epileptic-seizure risk from ECG features fused
// with an activity classification:
//
//	seizure-risk (root, on terminal)
//	├── ecg-features ── qrs-detect ── ecg sensor          @box-1
//	└── activity ── acc-feat-1 ── accelerometer-1 sensor  @box-2
//	           └─── acc-feat-2 ── accelerometer-2 sensor  @box-2
//
// Profile regime (synthetic): the sensor boxes are ~4×
// slower than the terminal, but raw bio-signals (256 Hz ECG, 3-axis
// accelerometers) cost far more to ship than extracted features, so the
// optimal assignment pushes feature extraction onto the boxes — the
// behaviour the paper's introduction motivates.
func Epilepsy() *model.Tree {
	b := model.NewBuilder()
	box1 := b.Satellite("box-1")
	box2 := b.Satellite("box-2")

	root := b.Root("seizure-risk", 3, 12)

	ecgF := b.Child(root, "ecg-features", 2, 8, 0.6)
	qrs := b.Child(ecgF, "qrs-detect", 1.5, 6, 0.8)
	b.Sensor(qrs, "ecg", box1, 9) // raw 256 Hz ECG stream

	act := b.Child(root, "activity", 1.5, 6, 0.5)
	a1 := b.Child(act, "acc-feat-1", 1, 4, 0.7)
	b.Sensor(a1, "accelerometer-1", box2, 5)
	a2 := b.Child(act, "acc-feat-2", 1, 4, 0.7)
	b.Sensor(a2, "accelerometer-2", box2, 5)

	return b.MustBuild()
}

// SNMP builds a network tele-monitoring procedure (§3 names "SNMP based
// network monitoring" as a second source of the model): a management
// station (host) polls three router agents (satellites); per-interface
// counters are smoothed on the agent, aggregated into per-router health,
// then fused into a network status.
func SNMP() *model.Tree {
	b := model.NewBuilder()
	routers := []model.SatelliteID{
		b.Satellite("router-1"),
		b.Satellite("router-2"),
		b.Satellite("router-3"),
	}
	root := b.Root("network-status", 2.5, 10)
	metrics := []struct {
		name string
		raw  float64
	}{
		{"if-octets", 3.0},
		{"cpu-load", 1.2},
		{"mem-usage", 1.2},
	}
	for i, r := range routers {
		health := b.Child(root, "health-"+string('1'+byte(i)), 1.2, 3.6, 0.4)
		for _, m := range metrics {
			smooth := b.Child(health, m.name+"-"+string('1'+byte(i)), 0.6, 1.8, 0.3)
			b.Sensor(smooth, m.name+"-probe-"+string('1'+byte(i)), r, m.raw)
		}
	}
	return b.MustBuild()
}
