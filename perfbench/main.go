// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, sets the program up, runs closed-loop
// rounds of fixed work from two client goroutines for a given time,
// checks every answer, and prints the metrics as a JSON object on its
// last line of output.
//
//	go run . --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it prints the per-layer metrics of a traced run, which
// times each layer call the ops make and writes the spans to
// <out>/spans-<workload>-<pass>.jsonl.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

var workloads = []string{"serve-hot", "cold-solve", "session-drift"}

func main() {
	workload := flag.String("workload", "serve-hot", "workload: serve-hot, cold-solve or session-drift")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		os.Exit(2)
	}
	listed, err := listedMetrics(*spec, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res *result
	if *trace == 0 {
		res, err = endToEnd(*workload, *seed, *seconds, defaultSizes)
	} else {
		res, err = perLayer(*workload, *seed, *seconds, defaultSizes, *out)
	}
	if err == nil {
		err = res.print(listed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// listedMetrics returns the names the benchmark definition lists as
// end-to-end metrics, or with perLayer as per-layer metrics: the metrics
// the result line carries.
func listedMetrics(path string, perLayer bool) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type named struct{ Name string }
	var def struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := def.EndToEnd
	if perLayer {
		list = def.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	host      string
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metric{value, unit, samples}
}

// print writes one line per measured metric with its sample count, then
// the host facts, then as the last line the JSON result carrying the
// listed metrics.
func (r *result) print(listed []string) error {
	keep := map[string]metric{}
	for _, name := range listed {
		m, ok := r.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		keep[name] = m
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-32s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.samples)
	}
	errFrac := 0.0
	if r.Attempted > 0 {
		errFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-32s %14.6g %-6s n=%d\n", "error_frac", errFrac, "ratio", r.Attempted)
	fmt.Println(r.host)
	r.Metrics = keep
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func hostFacts(steal float64) string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s host.steal_frac=%.4f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
}

func newWorkload(name string, in *inputs, layers bool) workload {
	switch name {
	case "serve-hot":
		h := newServeHot(in)
		h.layers = layers
		return h
	case "cold-solve":
		return newColdSolve(in)
	default:
		return newSessionDrift(in)
	}
}

// endToEnd is the untraced run: the source of every end-to-end metric.
func endToEnd(name string, seed int64, seconds float64, sz sizes) (*result, error) {
	in, err := generate(name, seed, sz)
	if err != nil {
		return nil, err
	}
	p, err := runPass(context.Background(), newWorkload(name, in, false), nil, false, seconds)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.Attempted, res.Failed = p.attempted, p.failed
	res.Correct = p.failed == 0
	r := len(p.rounds)
	res.add("cpu_ms_per_op", p.roundMedian(false, cpuPerOp), "ms", r)
	res.add("latency_p50_ms", p.roundMedian(false, func(s roundStat) float64 { return s.p50 }), "ms", p.attempted)
	res.add("throughput_ops_s", p.roundMedian(false, opsPerSecond), "ops/s", r)
	res.add("alloc_kb_per_op", p.roundMedian(false, func(s roundStat) float64 { return float64(s.alloc) / 1024 / float64(s.ops) }), "KiB", r)
	res.add("heap_live_mb", p.heapLive/(1<<20), "MiB", 1)
	res.add("setup_s", median(p.setups), "s", len(p.setups))
	res.host = hostFacts(p.steal)
	return res, nil
}

// roundStat is one round's measurements.
type roundStat struct {
	traced   bool
	ops      int
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64 // bytes allocated
	gcs      uint32 // collections the round triggered
	p50, p99 float64
}

// pass is one workload run for a stretch of measured time.
type pass struct {
	rounds    []roundStat
	setups    []float64 // seconds per set-up
	heapLive  float64   // bytes retained over the pass
	counts    opCounts  // first round's counters, summed over clients
	attempted int
	failed    int
	steal     float64 // host CPU share stolen over the pass
}

// roundMedian is the median of f over the traced or the untraced rounds.
func (p *pass) roundMedian(traced bool, f func(roundStat) float64) float64 {
	var xs []float64
	for _, s := range p.rounds {
		if s.traced == traced {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

func cpuPerOp(s roundStat) float64     { return ms(s.cpu) / float64(s.ops) }
func opsPerSecond(s roundStat) float64 { return float64(s.ops) / s.wall.Seconds() }

const (
	minRounds = 3
	maxRounds = 4096
	hotSetups = 15 // set-ups timed when rounds share one
)

// runPass sets the workload up and runs rounds until the measured time
// reaches seconds (and at least minRounds rounds ran). Set-up, the forced
// collection before each round and the sample checks after it are not
// measured. Rounds record spans into tr, or with alternate only the odd
// rounds do, so traced and untraced rounds share one warm process.
func runPass(ctx context.Context, w workload, tr *tracer, alternate bool, seconds float64) (*pass, error) {
	defer w.close()
	p := &pass{rounds: make([]roundStat, 0, maxRounds), setups: make([]float64, 0, maxRounds)}
	var lat [clients][]float64
	n := 0
	for c := range lat {
		lat[c] = make([]float64, w.ops(c))
		n += w.ops(c)
	}
	all := make([]float64, 0, n)
	var fails [clients]int
	var firstErr [clients]error
	baseHeap := liveHeap()

	setup := func() error {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		return nil
	}
	if !w.fresh() {
		for i := 0; i < hotSetups; i++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
	}
	var measured time.Duration
	host0 := readHostCPU()
	for r := 0; r < maxRounds && (r < minRounds || measured.Seconds() < seconds); r++ {
		if w.fresh() {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		rtr := tr
		if alternate && r%2 == 0 {
			rtr = nil
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range lat[c] {
					t0 := time.Now()
					err := w.op(ctx, c, i, rtr)
					lat[c][i] = float64(time.Since(t0).Nanoseconds()) / 1e6
					if err != nil {
						fails[c]++
						if firstErr[c] == nil {
							firstErr[c] = fmt.Errorf("client %d op %d: %w", c, i, err)
						}
					}
				}
			}()
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)

		all = all[:0]
		for c := range lat {
			all = append(all, lat[c]...)
		}
		slices.Sort(all)
		p.rounds = append(p.rounds, roundStat{
			traced: rtr != nil,
			ops:    n, wall: wall, cpu: cpu,
			alloc: ms1.TotalAlloc - ms0.TotalAlloc,
			gcs:   ms1.NumGC - ms0.NumGC,
			p50:   sortedQuantile(all, 0.5),
			p99:   sortedQuantile(all, 0.99),
		})
		p.attempted += n
		measured += wall
		if r == 0 {
			for _, c := range w.counts() {
				p.counts.add(c)
			}
		}
		bad, err := w.check(ctx)
		if err != nil {
			return nil, err
		}
		p.failed += bad
	}
	p.steal = stealFrac(host0, readHostCPU())
	p.heapLive = float64(liveHeap()) - float64(baseHeap)
	for c := range fails {
		p.failed += fails[c]
		if firstErr[c] != nil {
			fmt.Fprintln(os.Stderr, "perfbench: failed op:", firstErr[c])
		}
	}
	return p, nil
}

func (a *opCounts) add(b opCounts) {
	a.work += b.work
	a.workSmall += b.workSmall
	a.workLarge += b.workLarge
	a.opsSmall += b.opsSmall
	a.opsLarge += b.opsLarge
	a.fellBack += b.fellBack
	a.pruned += b.pruned
	a.boundHits += b.boundHits
	a.boundMisses += b.boundMisses
	a.replays += b.replays
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
