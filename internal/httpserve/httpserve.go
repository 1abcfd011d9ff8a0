package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/api"
	"repro/internal/cluster"
	"repro/internal/elastic"
	"repro/internal/jobs"
	"repro/internal/pool"
)

// Config parameterises the handler. Service is required; the zero value
// of every other field means "no limit" / sensible default.
type Config struct {
	// Service executes (and caches) the solves.
	Service *repro.Service
	// RequestTimeout is the server-side ceiling applied to every
	// request's context; requests may only tighten it via timeout_ms.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served requests; excess requests
	// are rejected with CodeOverloaded (HTTP 429). 0 = unbounded.
	MaxInflight int
	// MaxBatchItems caps one batch's size (default 1024).
	MaxBatchItems int
	// MaxBodyBytes caps one request body (default 8 MiB): oversized
	// payloads are rejected while decoding instead of being buffered.
	MaxBodyBytes int64
	// BatchParallelism bounds the per-batch worker pool (default NumCPU).
	BatchParallelism int
	// MaxSessions caps concurrently live dynamic-tree sessions (default
	// 1024); opening past the cap evicts the least recently used session.
	MaxSessions int
	// SessionTTL expires sessions idle longer than this (default 30m;
	// negative disables expiry). Expired and evicted sessions answer
	// not_found; clients re-open, losing only their warm-start state.
	SessionTTL time.Duration
	// Cluster, when set, makes this node one member of a sharded fleet:
	// solves route to their fingerprint's ring owner, batches scatter by
	// owner, and sessions pin to the node that opened them. Nil serves
	// everything locally (single-node mode).
	Cluster *cluster.Cluster
	// JobWorkers sizes the async job tier's solver pool (default
	// BatchParallelism). Jobs queue behind the pool rather than compete
	// with synchronous solves for the in-flight slots.
	JobWorkers int
	// JobQueueDepth bounds queued-but-not-running jobs (default 256);
	// submits past it are rejected with CodeOverloaded.
	JobQueueDepth int
	// JobTTL is how long finished jobs stay pollable (default 10m).
	JobTTL time.Duration
}

// Server is the routed handler with its drain control. It implements
// http.Handler; cmd/crserve flips it to draining before closing the
// listener so cluster peers stop routing here mid-shutdown.
type Server struct{ *server }

// New returns the fully routed handler.
func New(cfg Config) *Server {
	if cfg.Service == nil {
		panic("httpserve: Config.Service is required")
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.BatchParallelism <= 0 {
		cfg.BatchParallelism = runtime.NumCPU()
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = 30 * time.Minute
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = cfg.BatchParallelism
	}
	s := &server{
		cfg: cfg, started: time.Now(), metrics: newMetrics(),
		sessions:  map[string]*sessionEntry{},
		relocated: map[string]string{},
	}
	if cfg.MaxInflight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInflight)
	}
	jcfg := jobs.Config{
		Service:    cfg.Service,
		Workers:    cfg.JobWorkers,
		QueueDepth: cfg.JobQueueDepth,
		ResultTTL:  cfg.JobTTL,
	}
	if cl := cfg.Cluster; cl != nil {
		jcfg.SelfTag = cl.SelfTag()
	}
	s.jobs = jobs.New(jcfg)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.timed(epSolve, s.limited(s.handleSolve)))
	mux.HandleFunc("POST /v1/batch", s.timed(epBatch, s.limited(s.handleBatch)))
	mux.HandleFunc("POST /v1/simulate", s.timed(epSimulate, s.limited(s.handleSimulate)))
	mux.HandleFunc("POST /v1/session", s.timed(epSessionOpen, s.limited(s.handleSessionOpen)))
	mux.HandleFunc("GET /v1/session/{id}", s.timed(epSessionGet, s.ownerRouted(s.handleSessionGet)))
	mux.HandleFunc("POST /v1/session/{id}/mutate", s.timed(epSessionMutate, s.limited(s.ownerRouted(s.handleSessionMutate))))
	mux.HandleFunc("POST /v1/session/{id}/resolve", s.timed(epSessionResolve, s.limited(s.ownerRouted(s.handleSessionResolve))))
	mux.HandleFunc("DELETE /v1/session/{id}", s.timed(epSessionClose, s.ownerRouted(s.handleSessionClose)))
	mux.HandleFunc("POST /v1/jobs", s.timed(epJobSubmit, s.limited(s.handleJobSubmit)))
	mux.HandleFunc("GET /v1/jobs/{id}", s.timed(epJobGet, s.ownerRouted(s.handleJobGet)))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.ownerRouted(s.handleJobEvents))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.timed(epJobCancel, s.ownerRouted(s.handleJobCancel)))
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("POST /v1/cluster/members", s.handleMembersUpdate)
	mux.HandleFunc("POST /v1/migrate/cache", s.handleMigrateCache)
	mux.HandleFunc("POST /v1/migrate/sessions", s.handleMigrateSessions)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux = mux
	return &Server{s}
}

type server struct {
	cfg      Config
	mux      *http.ServeMux
	started  time.Time
	slots    chan struct{} // nil = unbounded
	draining atomic.Bool
	metrics  *metrics

	sessMu   sync.Mutex
	sessions map[string]*sessionEntry

	jobs *jobs.Manager

	// elastic is the dynamic-membership manager (nil = static seed list).
	// Set by AttachElastic before the server starts serving.
	elastic *elastic.Manager
	// relocated maps migrated session IDs to their adopting node — the
	// tombstones ownerRouted consults so pinned IDs outlive a migration.
	relocMu   sync.Mutex
	relocated map[string]string

	solves, batches, simulates, rejected, failed atomic.Int64
	sessionCalls, mutates, resolves              atomic.Int64
	sessionsEvicted                              atomic.Int64
	jobSubmits                                   atomic.Int64

	// Search-node accounting summed over every synchronous solve served
	// (the async job tier keeps its own in jobs.Stats): nodes explored
	// and branches pruned, exposed as the "search" block of /debug/vars.
	// An answer the Pareto DP proved counts its Work, frontier points
	// rather than nodes, into dpPoints instead of explored. replayed is
	// the nodes of outcomes served from the result cache or a joined
	// concurrent solve, counted at their original search: no search ran
	// for them here.
	explored, dpPoints atomic.Int64
	pruned             atomic.Int64
	replayed           atomic.Int64
}

// recordOutcome folds a served outcome's node accounting into the search
// counters. Only a miss ran a search; a hit or a shared result replays an
// outcome another call searched for, so it counts into replayed alone.
// A DP-proven outcome ran no search: a miss adds its frontier points to
// dpPoints, and a replay adds nothing.
func (s *server) recordOutcome(out *repro.Outcome, status repro.CacheStatus) {
	if out == nil {
		return
	}
	switch {
	case out.DP:
		if status == repro.CacheMiss {
			s.dpPoints.Add(int64(out.Work))
		}
		return
	case status != repro.CacheMiss:
		s.replayed.Add(int64(out.Work))
		return
	}
	s.explored.Add(int64(out.Work))
	s.pruned.Add(int64(out.Pruned))
}

// ServeHTTP dispatches to the routed mux.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips the node into draining: /healthz starts answering
// "draining" (503) and the cluster membership advertises the state, so
// peers stop routing new work here while the listener is still open and
// in-flight requests finish. The handler itself keeps serving — a
// draining node must answer everything it already accepted, plus
// hop-guarded forwards from peers whose ring view lags.
func (s *server) Drain() {
	s.draining.Store(true)
	if cl := s.cfg.Cluster; cl != nil {
		cl.SetDraining(true)
	}
}

// Draining reports whether Drain was called.
func (s *server) Draining() bool { return s.draining.Load() }

// Close stops the async job tier: running jobs are cancelled, queued
// jobs drain as canceled, and the workers exit. The HTTP routes keep
// answering (polls of finished jobs still work) — callers close the
// listener separately.
func (s *server) Close() { s.jobs.Close() }

// Jobs exposes the job manager, for tests and embedders.
func (s *server) Jobs() *jobs.Manager { return s.jobs }

// limited wraps a handler with the concurrency limiter: a request that
// finds every slot taken is rejected immediately — shedding load beats
// queueing it when callers retry with backoff.
func (s *server) limited(h http.HandlerFunc) http.HandlerFunc {
	if s.slots == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
			h(w, r)
		default:
			s.rejected.Add(1)
			writeError(w, &api.Error{
				Code:    api.CodeOverloaded,
				Message: fmt.Sprintf("server at max in-flight requests (%d)", s.cfg.MaxInflight),
			})
		}
	}
}

// requestContext applies the server-side timeout ceiling.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.solves.Add(1)
	var req api.SolveRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer body.release()
	tree, err := req.Tree()
	if err != nil {
		s.fail(w, err)
		return
	}
	if s.maybeForward(w, r, repro.Fingerprint(tree), body, true) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	out, status, err := s.cfg.Service.Solve(ctx, tree, req.Options()...)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.recordOutcome(out, status)
	enc := getBuffer()
	defer enc.release()
	enc.b, err = api.AppendSolveResponse(enc.b, api.NewSolveResponse(tree, out, status))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.stampSelf(w)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(enc.b)
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.batches.Add(1)
	var req api.BatchRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	body.release()
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.fail(w, &api.Error{
			Code:    api.CodeInvalidRequest,
			Message: fmt.Sprintf("batch of %d items exceeds the limit of %d", len(req.Items), s.cfg.MaxBatchItems),
		})
		return
	}
	if s.cfg.Cluster != nil && !forwarded(r) && len(req.Items) > 0 {
		s.scatterBatch(w, r, &req)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()

	resp := &api.BatchResponse{APIVersion: api.Version, Items: make([]api.BatchItem, len(req.Items))}
	pool.Run(ctx, len(req.Items), s.cfg.BatchParallelism, func(i int) {
		resp.Items[i] = s.solveItem(ctx, &req.Items[i])
	})
	// Items the feeder never dispatched (batch cancelled mid-flight)
	// must still carry a result.
	if err := ctx.Err(); err != nil {
		for i := range resp.Items {
			if resp.Items[i].Response == nil && resp.Items[i].Error == nil {
				resp.Items[i].Error = api.FromError(err)
			}
		}
	}
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) solveItem(ctx context.Context, item *api.SolveRequest) api.BatchItem {
	tree, err := item.Tree()
	if err != nil {
		return api.BatchItem{Error: api.FromError(err)}
	}
	out, status, err := s.cfg.Service.Solve(ctx, tree, item.Options()...)
	if err != nil {
		return api.BatchItem{Error: api.FromError(err)}
	}
	s.recordOutcome(out, status)
	return api.BatchItem{Response: api.NewSolveResponse(tree, out, status)}
}

func (s *server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.simulates.Add(1)
	var req api.SimulateRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer body.release()
	simCfg, mode, err := req.SimConfig()
	if err != nil {
		s.fail(w, err)
		return
	}
	tree, err := req.Tree()
	if err != nil {
		s.fail(w, err)
		return
	}
	if s.maybeForward(w, r, repro.Fingerprint(tree), body, true) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	out, status, err := s.cfg.Service.Solve(ctx, tree, req.Options()...)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.recordOutcome(out, status)
	res, err := repro.Simulate(tree, out.Assignment, simCfg)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, &api.SimulateResponse{
		APIVersion:  api.Version,
		Fingerprint: repro.Fingerprint(tree),
		Algorithm:   string(out.Algorithm),
		Delay:       out.Delay,
		Cached:      status == repro.CacheHit,
		Mode:        mode,
		Frames:      len(res.Frames),
		Makespan:    res.Makespan,
		Throughput:  res.Throughput,
		BusyHost:    res.BusyHost,
	})
}

func (s *server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.ListAlgorithms())
}

// handleHealthz answers "ok" (200) while serving and "draining" (503)
// once Drain was called: the non-200 pulls the node from load-balancer
// rotation, and cluster peers' probes parse the body so a draining node
// reads as alive-but-shedding rather than dead. In cluster mode the
// response advertises this node's view epoch — the gossip path that lets
// a peer that missed a membership broadcast notice and catch up.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(api.EpochHeader, strconv.FormatUint(cl.Epoch(), 10))
	}
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleVars emits expvar-compatible JSON: every published expvar (which
// includes cmdline and memstats) plus this server's cache and request
// counters under "crserve". The server's own vars are rendered per
// request instead of registered globally, so many handlers can coexist
// in one process (expvar.Publish panics on duplicates).
//
// The "runtime" block carries the scheduler and allocator gauges the
// flat-plan relayering is tuned against: GOMAXPROCS, heap size and
// cumulative allocation counters, so a dashboard can confirm the warm
// serve path really holds its zero-allocation contract in production
// (mallocs should be flat between scrapes under a cache-hit-heavy load).
//
// The "latency" block carries per-endpoint quantile summaries (count,
// mean/p50/p95/p99/max in µs) and "inflight" the concurrently-served
// request gauge — the server-side half of what the crload harness
// measures from the client side (internal/load's collector scrapes both
// and persists them next to the client histograms).
func (s *server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprint(w, "{")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%q: %s, ", kv.Key, kv.Value)
	})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ownVars := map[string]any{
		"cache": s.cfg.Service.Stats(),
		"requests": map[string]int64{
			"solve":        s.solves.Load(),
			"batch":        s.batches.Load(),
			"simulate":     s.simulates.Load(),
			"session_open": s.sessionCalls.Load(),
			"mutate":       s.mutates.Load(),
			"resolve":      s.resolves.Load(),
			"job_submit":   s.jobSubmits.Load(),
			"rejected":     s.rejected.Load(),
			"failed":       s.failed.Load(),
		},
		"jobs": s.jobs.Stats(),
		"search": map[string]int64{
			"explored":  s.explored.Load(),
			"dp_points": s.dpPoints.Load(),
			"pruned":    s.pruned.Load(),
			"replayed":  s.replayed.Load(),
		},
		"sessions": map[string]int64{
			"live":    int64(s.sessionCount()),
			"evicted": s.sessionsEvicted.Load(),
		},
		"latency":  s.metrics.latencyVars(),
		"inflight": s.metrics.inflight.Load(),
		"runtime": map[string]any{
			"gomaxprocs":        runtime.GOMAXPROCS(0),
			"num_cpu":           runtime.NumCPU(),
			"heap_alloc_bytes":  ms.HeapAlloc,
			"heap_objects":      ms.HeapObjects,
			"total_alloc_bytes": ms.TotalAlloc,
			"mallocs":           ms.Mallocs,
			"num_gc":            ms.NumGC,
			"gc_cpu_fraction":   ms.GCCPUFraction,
		},
		"uptime_seconds": time.Since(s.started).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
	}
	if cl := s.cfg.Cluster; cl != nil {
		states := map[string]string{}
		for _, n := range cl.Snapshot() {
			states[n.ID] = n.State.String()
		}
		ownVars["cluster"] = map[string]any{
			"self":     cl.Self(),
			"epoch":    cl.Epoch(),
			"draining": s.draining.Load(),
			"stats":    cl.Stats(),
			"states":   states,
		}
	}
	if s.elastic != nil {
		ownVars["elastic"] = s.elastic.Counters()
	}
	own, _ := json.Marshal(ownVars)
	fmt.Fprintf(w, "%q: %s}", "crserve", own)
}

func (s *server) fail(w http.ResponseWriter, err error) {
	s.failed.Add(1)
	writeError(w, api.FromError(err))
}

// decode reads the JSON request body strictly: the size cap keeps one
// request from buffering unbounded memory, unknown fields are typos until
// a future wire version says otherwise, and anything after the value is
// rejected. A SolveRequest in canonical form takes api's fast path; every
// other body, and every other request type, is decoded by
// api.DecodeStrict. The body is returned so cluster forwarding can relay
// the request verbatim instead of re-serialising the decoded form; the
// decoded value never references it. The caller releases the body when it
// is done with it.
func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) (*buffer, error) {
	body := getBuffer()
	if err := body.readFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes); err != nil {
		body.release()
		return nil, &api.Error{Code: api.CodeInvalidRequest, Message: "reading request body: " + err.Error()}
	}
	if req, ok := into.(*api.SolveRequest); ok && api.DecodeSolveRequest(body.b, req) {
		return body, nil
	}
	if err := api.DecodeStrict(body.b, into); err != nil {
		body.release()
		return nil, &api.Error{Code: api.CodeInvalidRequest, Message: "decoding request body: " + err.Error()}
	}
	return body, nil
}

// buffer is a pooled byte slice holding one request body or one encoded
// solve response.
type buffer struct {
	b []byte
	// forwarded marks a body offered to a peer. cluster.Forward returns
	// on the first hedge winner while a losing attempt may still be
	// sending the body, so such a body is never reused.
	forwarded bool
}

var buffers = sync.Pool{New: func() any { return new(buffer) }}

// maxPooledBuffer caps the buffers kept for reuse: one unusually large
// body does not pin its memory in the pool.
const maxPooledBuffer = 1 << 20

// maxPresize caps how much of a declared Content-Length is allocated
// before the bytes arrive, so headers alone cannot make the server
// allocate up to MaxBodyBytes; larger bodies grow as they are read.
const maxPresize = 64 << 10

func getBuffer() *buffer { return buffers.Get().(*buffer) }

// release returns b to the pool unless a peer may still read it.
func (b *buffer) release() {
	if b.forwarded || cap(b.b) > maxPooledBuffer {
		return
	}
	b.b = b.b[:0]
	buffers.Put(b)
}

// readFrom reads r to EOF into b, presized from the request's declared
// length when it is within limit.
func (b *buffer) readFrom(r io.Reader, length, limit int64) error {
	if length > 0 && length <= limit {
		// One spare byte lets the read that reports EOF land without
		// growing the slice.
		b.b = slices.Grow(b.b[:0], int(min(length, maxPresize))+1)
	}
	for {
		if len(b.b) == cap(b.b) {
			b.b = slices.Grow(b.b, bytes.MinRead)
		}
		n, err := r.Read(b.b[len(b.b):cap(b.b)])
		b.b = b.b[:len(b.b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload)
}

func writeError(w http.ResponseWriter, e *api.Error) {
	status := e.Code.HTTPStatus()
	if status == http.StatusTooManyRequests {
		// Load shedding is by design momentary (a full limiter or job
		// queue, not a stuck server): tell well-behaved clients when to
		// come back instead of letting them hammer the limiter.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, e)
}
