package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro"
	"repro/api"
)

// clients is the closed-loop client count: one per vCPU of the reference
// host, so the clients keep both CPUs busy without queueing behind each
// other.
const clients = 2

// sizes fixes how much work one round of each workload does. Every round
// of a workload repeats the same operations, so per-op counts do not
// depend on how many rounds fit into a run.
type sizes struct {
	hotCorpus int // serve-hot corpus instances
	hotOps    int // serve-hot requests per client per round
	coldOps   int // cold-solve instances per client per round
	coldWarm  int // cold-solve warm-up solves in each set-up
	sessions  int // session-drift sessions per client
	visits    int // session-drift resolves per session per round
	samples   int // ops per client per round re-checked against pareto-dp
}

var defaultSizes = sizes{
	hotCorpus: 64,
	hotOps:    1500,
	coldOps:   200,
	coldWarm:  32,
	sessions:  64,
	visits:    4,
	samples:   4,
}

// inputs are one workload's generated operations. They are made from the
// seed alone, before the program is set up, and the program only ever
// sees them.
type inputs struct {
	// serve-hot: request bodies of the corpus, and each client's corpus
	// indices for one round.
	hot    [][]byte
	hotOps [clients][]int

	// cold-solve: each client's fingerprint-distinct instances for one
	// round, and the warm-up instances each set-up solves first.
	cold [clients][]*repro.Spec
	warm []*repro.Spec

	// session-drift: each client's session trees, and the client's
	// mutate-then-resolve ops for one round.
	sessions [clients][]*repro.Spec
	drift    [clients][]driftOp

	// sample[c] lists client c's op indices re-checked against pareto-dp
	// after the round (cold-solve and session-drift).
	sample [clients][]int
}

// driftOp is one session-drift op: two weight updates of one session,
// then a warm resolve.
type driftOp struct {
	session int
	muts    []repro.Mutation
}

// corpusSeed draws the session-drift trees, whatever the run's seed.
const corpusSeed = 1

// rngFor derives an independent stream per workload, so one workload's
// inputs do not depend on which others a run generates.
func rngFor(seed int64, workload string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, workload)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func generate(workload string, seed int64, sz sizes) (*inputs, error) {
	rng := rngFor(seed, workload)
	in := &inputs{}
	switch workload {
	case "serve-hot":
		// Corpus sizes are fixed by popularity rank (12–20 CRUs) and the
		// seed draws the trees, so every seed's Zipf head has the same
		// size mix.
		in.hot = make([][]byte, sz.hotCorpus)
		for i := range in.hot {
			spec := randomSpec(rng, fmt.Sprintf("hot-%d", i), 12+i%9, 3)
			body, err := json.Marshal(&api.SolveRequest{Spec: spec})
			if err != nil {
				return nil, fmt.Errorf("encoding corpus instance %d: %w", i, err)
			}
			in.hot[i] = body
		}
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(sz.hotCorpus-1))
		for c := range in.hotOps {
			in.hotOps[c] = make([]int, sz.hotOps)
			for i := range in.hotOps[c] {
				in.hotOps[c][i] = int(zipf.Uint64())
			}
		}
	case "cold-solve":
		for c := range in.cold {
			in.cold[c] = make([]*repro.Spec, sz.coldOps)
			for i := range in.cold[c] {
				in.cold[c][i] = randomSpec(rng, fmt.Sprintf("cold-%d-%d", c, i), 48+rng.Intn(49), 3+rng.Intn(2))
			}
			in.sample[c] = pickSample(rng, sz.coldOps, sz.samples)
		}
		in.warm = make([]*repro.Spec, sz.coldWarm)
		for i := range in.warm {
			in.warm[i] = randomSpec(rng, fmt.Sprintf("warm-%d", i), 48+rng.Intn(49), 3+rng.Intn(2))
		}
	case "session-drift":
		// The session trees are one fixed corpus, like the fixed set of
		// reasoning procedures a deployment serves; the seed draws the
		// drift. Exact search cost doubles every two CRUs and varies
		// about 100% between trees of one size, so with trees drawn per
		// seed the CPU per op of ten seeds spread by a fifth.
		trees := rngFor(corpusSeed, workload)
		for c := range in.sessions {
			in.sessions[c] = make([]*repro.Spec, sz.sessions)
			for j := range in.sessions[c] {
				// Sizes spread evenly over 20–32 CRUs, about half of them
				// under the 26-CRU small/large split.
				n := 20 + j*13/sz.sessions
				in.sessions[c][j] = randomSpec(trees, fmt.Sprintf("sess-%d-%d", c, j), n, 3)
			}
		}
		for c := range in.sessions {
			in.drift[c] = driftOps(rng, in.sessions[c], sz.visits)
			in.sample[c] = pickSample(rng, len(in.drift[c]), sz.samples)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// driftOps visits the sessions round-robin. Each op scales the host and
// satellite times of two distinct CRUs by a factor in [0.9, 1.1]; the
// values are tracked here so each update carries absolute times.
func driftOps(rng *rand.Rand, specs []*repro.Spec, visits int) []driftOp {
	host := make([][]float64, len(specs))
	sat := make([][]float64, len(specs))
	for j, s := range specs {
		for _, c := range s.CRUs {
			host[j] = append(host[j], c.HostTime)
			sat[j] = append(sat[j], c.SatTime)
		}
	}
	ops := make([]driftOp, 0, len(specs)*visits)
	for v := 0; v < visits; v++ {
		for j, s := range specs {
			a := rng.Intn(len(s.CRUs))
			b := (a + 1 + rng.Intn(len(s.CRUs)-1)) % len(s.CRUs)
			op := driftOp{session: j}
			for _, k := range []int{a, b} {
				f := 0.9 + 0.2*rng.Float64()
				h, st := host[j][k]*f, sat[j][k]*f
				host[j][k], sat[j][k] = h, st
				op.muts = append(op.muts, repro.WeightUpdate{Node: s.CRUs[k].Name, HostTime: &h, SatTime: &st})
			}
			ops = append(ops, op)
		}
	}
	return ops
}

func pickSample(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}

// randomSpec draws a tree in the paper's regime: host times U(1,4),
// satellites about 3x slower, upward comms U(0.2,1), 1–2 sensors per
// leaf CRU whose raw frames cost about 4x their CRU's comm, and sensors
// assigned to satellites in contiguous depth-first blocks.
func randomSpec(rng *rand.Rand, name string, crus, sats int) *repro.Spec {
	u := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	spec := &repro.Spec{Name: name}
	for i := 0; i < sats; i++ {
		spec.Satellites = append(spec.Satellites, fmt.Sprintf("sat-%d", i))
	}
	children := make([][]int, crus)
	comm := make([]float64, crus)
	open := []int{0}
	for i := 0; i < crus; i++ {
		h := u(1, 4)
		comm[i] = u(0.2, 1)
		cru := repro.SpecCRU{Name: fmt.Sprintf("cru-%d", i), HostTime: h, SatTime: h * 3 * u(0.8, 1.2)}
		if i > 0 {
			cru.Comm = comm[i]
			j := rng.Intn(len(open))
			p := open[j]
			cru.Parent = spec.CRUs[p].Name
			children[p] = append(children[p], i)
			if len(children[p]) == 3 {
				open[j] = open[len(open)-1]
				open = open[:len(open)-1]
			}
			open = append(open, i)
		}
		spec.CRUs = append(spec.CRUs, cru)
	}
	var leaves []int
	var dfs func(i int)
	dfs = func(i int) {
		if len(children[i]) == 0 {
			leaves = append(leaves, i)
		}
		for _, c := range children[i] {
			dfs(c)
		}
	}
	dfs(0)
	counts := make([]int, len(leaves))
	total := 0
	for i := range counts {
		counts[i] = 1 + rng.Intn(2)
		total += counts[i]
	}
	pos := 0
	for i, leaf := range leaves {
		for k := 0; k < counts[i]; k++ {
			spec.Sensors = append(spec.Sensors, repro.SpecSensor{
				Name:      fmt.Sprintf("sensor-%d-%d", i, k),
				Parent:    spec.CRUs[leaf].Name,
				Satellite: spec.Satellites[pos*sats/total],
				Comm:      comm[leaf] * 4 * u(0.8, 1.2),
			})
			pos++
		}
	}
	return spec
}
