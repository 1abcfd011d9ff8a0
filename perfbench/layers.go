package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
)

// perLayer is the traced run. The chosen workload runs first, its odd
// rounds traced and its even rounds not, which gives the tracing overhead
// and the run-wide numbers; then the other workloads run traced and
// serve-hot's handler calls are replayed one by one, so every per-layer
// metric comes out of every traced run. The measured time is split evenly
// over these four passes.
func perLayer(name string, seed int64, seconds float64, sz sizes, out string) (*result, error) {
	ctx := context.Background()
	ins := map[string]*inputs{}
	for _, w := range workloads {
		in, err := generate(w, seed, sz)
		if err != nil {
			return nil, err
		}
		ins[w] = in
	}
	res := newResult()
	host0 := readHostCPU()
	passes := map[string]*pass{}
	spans := map[string]map[string][]float64{}
	workers := map[string]workload{}
	run := func(label string, w workload, alternate bool) error {
		tr := newTracer()
		p, err := runPass(ctx, w, tr, alternate, seconds/4)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		passes[label], spans[label], workers[label] = p, tr.selfTimes(), w
		return tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-%s.jsonl", name, label)))
	}
	order := append([]string{name}, slices.DeleteFunc(slices.Clone(workloads), func(w string) bool { return w == name })...)
	for _, w := range order {
		if err := run(w, newWorkload(w, ins[w], false), w == name); err != nil {
			return nil, err
		}
	}
	if err := run("serve-hot-layers", newWorkload("serve-hot", ins["serve-hot"], true), false); err != nil {
		return nil, err
	}
	layer := spans["serve-hot-layers"]

	// serve-hot: the handler's layers, timed one call at a time; the
	// handler's own share is what its total leaves over.
	sum := 0.0
	for _, l := range []struct{ metric, span string }{
		{"api.decode_us", "api.decode"},
		{"model.build_us", "model.build"},
		{"model.fingerprint_us", "model.fingerprint"},
		{"repro.solve_hit_us", "repro.solve_hit"},
		{"api.encode_us", "api.encode"},
	} {
		v := median(layer[l.span])
		sum += v
		res.add(l.metric, v, "us", len(layer[l.span]))
	}
	serve := spans["serve-hot"]["httpserve.ServeHTTP"]
	res.add("httpserve.self_us", median(serve)-sum, "us", len(serve))
	res.add("cache.hit_ratio", workers["serve-hot"].(*serveHot).hitRatio(), "ratio", passes["serve-hot"].attempted)

	// cold-solve: build, compile, solve and evaluate of fresh instances.
	cold := spans["cold-solve"]
	for _, l := range []struct{ metric, span string }{
		{"model.build_us.cold", "model.build"},
		{"model.compile_us", "model.compile"},
		{"core.solve_us", "core.solve"},
		{"eval.evaluate_us", "eval.evaluate"},
	} {
		res.add(l.metric, median(cold[l.span]), "us", len(cold[l.span]))
	}
	cp := passes["cold-solve"]
	cn, cops := cp.counts, cp.rounds[0].ops
	res.add("assign.work_per_op", ratio(cn.work, cops), "count", cops)
	res.add("assign.fallback_frac", ratio(cn.fellBack, cops), "ratio", cops)

	// session-drift: mutate, then the warm exact resolve and its search.
	drift := spans["session-drift"]
	res.add("incremental.mutate_us", median(drift["incremental.mutate"]), "us", len(drift["incremental.mutate"]))
	res.add("repro.resolve_us", median(drift["repro.resolve"]), "us", len(drift["repro.resolve"]))
	dp := passes["session-drift"]
	dn, dops := dp.counts, dp.rounds[0].ops
	res.add("exact.explored_per_op", ratio(dn.work, dops), "count", dops)
	res.add("exact.explored_per_op.small", ratio(dn.workSmall, dn.opsSmall), "count", dn.opsSmall)
	res.add("exact.explored_per_op.large", ratio(dn.workLarge, dn.opsLarge), "count", dn.opsLarge)
	res.add("exact.pruned_per_op", ratio(dn.pruned, dops), "count", dops)
	resolveMS := 0.0
	for _, us := range drift["repro.resolve"] {
		resolveMS += us / 1e3
	}
	// Every round repeats the first one's search, so each timed resolve
	// explored the first round's nodes per op on average.
	res.add("exact.nodes_per_ms", ratio(dn.work, dops)*float64(len(drift["repro.resolve"]))/resolveMS, "nodes/ms", len(drift["repro.resolve"]))
	res.add("boundcache.hit_ratio", ratio(dn.boundHits, dn.boundHits+dn.boundMisses), "ratio", dn.boundHits+dn.boundMisses)
	res.add("boundcache.replay_frac", ratio(dn.replays, dops), "ratio", dops)

	// The chosen workload's run-wide numbers, from its untraced rounds.
	own := passes[name]
	gcs, ops := 0, 0
	for _, s := range own.rounds {
		if !s.traced {
			gcs += int(s.gcs)
			ops += s.ops
		}
	}
	res.add("cpu_ms_per_op", own.roundMedian(false, cpuPerOp), "ms", ops)
	res.add("latency_p50_ms", own.roundMedian(false, func(s roundStat) float64 { return s.p50 }), "ms", ops)
	res.add("throughput_ops_s", own.roundMedian(false, opsPerSecond), "ops/s", ops)
	res.add("runtime.gc_per_kop", 1000*ratio(gcs, ops), "1/kop", ops)
	res.add("client.latency_p99_ms", own.roundMedian(false, func(s roundStat) float64 { return s.p99 }), "ms", ops)
	res.add("trace.overhead_frac", own.roundMedian(true, cpuPerOp)/own.roundMedian(false, cpuPerOp)-1, "ratio", len(own.rounds))
	steal := stealFrac(host0, readHostCPU())
	res.add("host.steal_frac", steal, "ratio", 1)
	res.host = hostFacts(steal)
	res.Correct = res.Failed == 0
	return res, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
