package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"

	"repro"
	"repro/api"
	"repro/internal/httpserve"
	"repro/internal/model"
)

// workload is one kind of closed-loop op run against freshly set-up
// program state. op runs and checks one op; a returned error counts the
// op as failed.
type workload interface {
	// fresh reports whether every round needs its own set-up, because a
	// round leaves state (cache entries, session revisions) that would
	// change the next round's work.
	fresh() bool
	setup(ctx context.Context) error
	ops(c int) int
	op(ctx context.Context, c, i int, tr *tracer) error
	// check runs after each round, outside the timed phase: it re-solves
	// the first round's sampled ops cold with pareto-dp and returns how
	// many disagreed.
	check(ctx context.Context) (int, error)
	// counts are the per-client counters of the ops run so far.
	counts() *[clients]opCounts
	close()
}

// opCounts are per-client work counters read from the program's outcomes.
type opCounts struct {
	work                   int // Outcome.Work: SSB work or exact nodes explored
	workSmall, workLarge   int // session-drift work split at 26 CRUs
	opsSmall, opsLarge     int
	fellBack               int // SSB outcomes that fell back to label search
	pruned                 int
	boundHits, boundMisses int
	replays                int // exact resolves answered with zero nodes
}

// sampled is a stored outcome awaiting its pareto-dp re-check.
type sampled struct {
	tree  *repro.Tree
	delay float64
}

// sampler records the sampled ops of the first round.
type sampler struct {
	armed  bool
	is     [clients][]bool
	stored [clients][]sampled
}

func newSampler(in *inputs, ops func(c int) int) sampler {
	s := sampler{armed: true}
	for c := range s.is {
		s.is[c] = make([]bool, ops(c))
		for _, i := range in.sample[c] {
			s.is[c][i] = true
		}
	}
	return s
}

func (s *sampler) record(c, i int, tree *repro.Tree, delay float64) {
	if s.armed && s.is[c][i] {
		s.stored[c] = append(s.stored[c], sampled{tree, delay})
	}
}

// check compares every stored outcome with a cold pareto-dp solve and
// disarms the sampler.
func (s *sampler) check(ctx context.Context) (int, error) {
	oracle := repro.NewSolver(repro.WithAlgorithm(repro.ParetoDP))
	bad := 0
	for c := range s.stored {
		for _, smp := range s.stored[c] {
			out, err := oracle.Solve(ctx, smp.tree)
			if err != nil {
				return bad, fmt.Errorf("pareto-dp oracle: %w", err)
			}
			if !sameDelay(out.Delay, smp.delay) {
				fmt.Fprintf(os.Stderr, "perfbench: sampled op: delay %v, pareto-dp gives %v\n", smp.delay, out.Delay)
				bad++
			}
		}
		s.stored[c] = s.stored[c][:0]
	}
	s.armed = false
	return bad, nil
}

// sameDelay compares delays found by different algorithms, which may sum
// the same terms in a different order.
func sameDelay(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// serveHot sends the hot corpus through the in-process HTTP handler. In
// layers mode (traced runs only) it instead replays the handler's layer
// calls one by one, so each can be timed.
type serveHot struct {
	in     *inputs
	layers bool
	svc    *repro.Service
	srv    *httpserve.Server
	want   [][]byte         // each corpus instance's "delay" field from set-up
	primed repro.CacheStats // cache counters right after priming
	rec    [clients]*recorder
	cnt    [clients]opCounts
}

func newServeHot(in *inputs) *serveHot {
	h := &serveHot{in: in}
	for c := range h.rec {
		h.rec[c] = newRecorder()
	}
	return h
}

func (h *serveHot) fresh() bool                        { return false }
func (h *serveHot) ops(c int) int                      { return len(h.in.hotOps[c]) }
func (h *serveHot) counts() *[clients]opCounts         { return &h.cnt }
func (h *serveHot) check(context.Context) (int, error) { return 0, nil }

// setup builds the Service (result cache 4x the corpus) and handler and
// primes the cache with one request per corpus instance.
func (h *serveHot) setup(ctx context.Context) error {
	h.close()
	h.svc = repro.NewService(nil, 4*len(h.in.hot))
	h.srv = httpserve.New(httpserve.Config{Service: h.svc})
	h.want = make([][]byte, len(h.in.hot))
	rec := newRecorder()
	for i, body := range h.in.hot {
		if err := h.serve(ctx, rec, body); err != nil {
			return fmt.Errorf("priming corpus instance %d: %w", i, err)
		}
		h.want[i] = bytes.Clone(delayField(rec.buf.Bytes()))
	}
	h.primed = h.svc.Stats()
	return nil
}

// hitRatio is the result cache's hits ÷ (hits + misses) since priming.
func (h *serveHot) hitRatio() float64 {
	st := h.svc.Stats()
	hits, misses := st.Hits-h.primed.Hits, st.Misses-h.primed.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (h *serveHot) serve(ctx context.Context, rec *recorder, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/solve", bytes.NewReader(body))
	if err != nil {
		return err
	}
	rec.reset()
	h.srv.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.code, rec.buf.Bytes())
	}
	return nil
}

func (h *serveHot) op(ctx context.Context, c, i int, tr *tracer) error {
	idx := h.in.hotOps[c][i]
	if h.layers {
		return h.replay(ctx, c, idx, tr)
	}
	sp := tr.begin(c, "httpserve.ServeHTTP", -1)
	err := h.serve(ctx, h.rec[c], h.in.hot[idx])
	tr.end(c, sp)
	if err != nil {
		return err
	}
	if got := delayField(h.rec[c].buf.Bytes()); !bytes.Equal(got, h.want[idx]) {
		return fmt.Errorf("instance %d: delay %s, set-up solve gave %s", idx, got, h.want[idx])
	}
	return nil
}

// replay makes the calls the solve handler makes, each in its own span.
func (h *serveHot) replay(ctx context.Context, c, idx int, tr *tracer) error {
	root := tr.begin(c, "op", -1)
	defer tr.end(c, root)

	sp := tr.begin(c, "api.decode", root)
	var sr api.SolveRequest
	err := json.Unmarshal(h.in.hot[idx], &sr)
	tr.end(c, sp)
	if err != nil {
		return err
	}
	sp = tr.begin(c, "model.build", root)
	tree, err := repro.FromSpec(sr.Spec)
	tr.end(c, sp)
	if err != nil {
		return err
	}
	sp = tr.begin(c, "model.fingerprint", root)
	repro.Fingerprint(tree)
	tr.end(c, sp)
	sp = tr.begin(c, "repro.solve_hit", root)
	out, status, err := h.svc.Solve(ctx, tree)
	tr.end(c, sp)
	if err != nil {
		return err
	}
	// The handler encodes with an indenting json.Encoder; so does this.
	sp = tr.begin(c, "api.encode", root)
	rec := h.rec[c]
	rec.reset()
	enc := json.NewEncoder(&rec.buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(api.NewSolveResponse(tree, out, status))
	tr.end(c, sp)
	if err != nil {
		return err
	}
	if status != repro.CacheHit {
		return fmt.Errorf("instance %d: cache status %v after priming", idx, status)
	}
	if got := delayField(rec.buf.Bytes()); !bytes.Equal(got, h.want[idx]) {
		return fmt.Errorf("instance %d: delay %s, set-up solve gave %s", idx, got, h.want[idx])
	}
	return nil
}

func (h *serveHot) close() {
	if h.srv != nil {
		h.srv.Close()
		h.srv = nil
	}
}

// delayField returns the raw number of the response's "delay" field.
func delayField(body []byte) []byte {
	const key = `"delay": `
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil
	}
	rest := body[i+len(key):]
	if j := bytes.IndexAny(rest, ",\n}"); j >= 0 {
		return rest[:j]
	}
	return rest
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(p)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.buf.Reset()
}

// coldSolve builds and solves fingerprint-distinct instances with the
// paper's adapted SSB through a fresh Service, so every solve misses.
type coldSolve struct {
	in  *inputs
	svc *repro.Service
	smp sampler
	cnt [clients]opCounts
}

func newColdSolve(in *inputs) *coldSolve {
	w := &coldSolve{in: in}
	w.smp = newSampler(in, w.ops)
	return w
}

func (w *coldSolve) fresh() bool                { return true }
func (w *coldSolve) ops(c int) int              { return len(w.in.cold[c]) }
func (w *coldSolve) counts() *[clients]opCounts { return &w.cnt }
func (w *coldSolve) close()                     { w.svc = nil }
func (w *coldSolve) check(ctx context.Context) (int, error) {
	return w.smp.check(ctx)
}

// setup builds the Service and warms it with solves of instances the
// round does not use.
func (w *coldSolve) setup(ctx context.Context) error {
	w.svc = repro.NewService(repro.NewSolver(repro.WithAlgorithm(repro.AdaptedSSB)), 1024)
	for i, spec := range w.in.warm {
		tree, err := repro.FromSpec(spec)
		if err != nil {
			return fmt.Errorf("warm-up instance %d: %w", i, err)
		}
		if _, _, err := w.svc.Solve(ctx, tree); err != nil {
			return fmt.Errorf("warm-up instance %d: %w", i, err)
		}
	}
	return nil
}

func (w *coldSolve) op(ctx context.Context, c, i int, tr *tracer) error {
	root := tr.begin(c, "op", -1)
	defer tr.end(c, root)

	sp := tr.begin(c, "model.build", root)
	tree, err := repro.FromSpec(w.in.cold[c][i])
	tr.end(c, sp)
	if err != nil {
		return err
	}
	if tr != nil {
		// Untraced, Solve compiles the plan itself; compiling first here
		// moves that same work into its own span (plans are memoised per
		// tree, so Solve reuses it).
		sp = tr.begin(c, "model.compile", root)
		model.Compile(tree)
		tr.end(c, sp)
	}
	sp = tr.begin(c, "core.solve", root)
	out, _, err := w.svc.Solve(ctx, tree)
	tr.end(c, sp)
	if err != nil {
		return err
	}
	sp = tr.begin(c, "eval.evaluate", root)
	bd, err := repro.Evaluate(tree, out.Assignment)
	tr.end(c, sp)
	if err != nil {
		return fmt.Errorf("evaluating the returned assignment: %w", err)
	}
	if !sameDelay(bd.Delay, out.Delay) {
		return fmt.Errorf("outcome delay %v re-evaluates to %v", out.Delay, bd.Delay)
	}
	cnt := &w.cnt[c]
	cnt.work += out.Work
	if out.Stats != nil && out.Stats.FellBack {
		cnt.fellBack++
	}
	w.smp.record(c, i, tree, out.Delay)
	return nil
}

// sessionDrift drifts the weights of live sessions and re-solves them
// warm and exactly with branch-and-bound and each session's private bound
// cache.
type sessionDrift struct {
	in   *inputs
	svc  *repro.Service
	sess [clients][]*repro.Session
	smp  sampler
	cnt  [clients]opCounts
}

func newSessionDrift(in *inputs) *sessionDrift {
	w := &sessionDrift{in: in}
	w.smp = newSampler(in, w.ops)
	return w
}

func (w *sessionDrift) fresh() bool                { return true }
func (w *sessionDrift) ops(c int) int              { return len(w.in.drift[c]) }
func (w *sessionDrift) counts() *[clients]opCounts { return &w.cnt }
func (w *sessionDrift) check(ctx context.Context) (int, error) {
	return w.smp.check(ctx)
}

func (w *sessionDrift) close() {
	w.svc = nil
	for c := range w.sess {
		w.sess[c] = nil
	}
}

// setup builds the Service and opens every session with its first
// (cold) exact solve.
func (w *sessionDrift) setup(ctx context.Context) error {
	w.svc = repro.NewService(nil, 1024)
	for c := range w.sess {
		w.sess[c] = make([]*repro.Session, len(w.in.sessions[c]))
		for j, spec := range w.in.sessions[c] {
			tree, err := repro.FromSpec(spec)
			if err != nil {
				return fmt.Errorf("session %d/%d: %w", c, j, err)
			}
			sess, err := w.svc.OpenSession(tree, repro.WithAlgorithm(repro.BranchBound))
			if err != nil {
				return fmt.Errorf("session %d/%d: %w", c, j, err)
			}
			if _, _, err := sess.Resolve(ctx); err != nil {
				return fmt.Errorf("session %d/%d first solve: %w", c, j, err)
			}
			w.sess[c][j] = sess
		}
	}
	return nil
}

func (w *sessionDrift) op(ctx context.Context, c, i int, tr *tracer) error {
	op := w.in.drift[c][i]
	root := tr.begin(c, "op", -1)
	defer tr.end(c, root)

	sess := w.sess[c][op.session]
	sp := tr.begin(c, "incremental.mutate", root)
	err := sess.Mutate(op.muts...)
	tr.end(c, sp)
	if err != nil {
		return err
	}
	sp = tr.begin(c, "repro.resolve", root)
	out, tree, _, err := sess.ResolveRevision(ctx)
	tr.end(c, sp)
	if err != nil {
		return err
	}
	if !out.Exact || out.LowerBound != out.Delay {
		return fmt.Errorf("resolve not proven optimal: exact=%v lower bound %v, delay %v", out.Exact, out.LowerBound, out.Delay)
	}
	cnt := &w.cnt[c]
	cnt.work += out.Work
	if len(w.in.sessions[c][op.session].CRUs) < 26 {
		cnt.workSmall += out.Work
		cnt.opsSmall++
	} else {
		cnt.workLarge += out.Work
		cnt.opsLarge++
	}
	cnt.pruned += out.Pruned
	cnt.boundHits += out.BoundHits
	cnt.boundMisses += out.BoundMisses
	if out.Work == 0 {
		cnt.replays++
	}
	w.smp.record(c, i, tree, out.Delay)
	return nil
}
