// Package jobs is the anytime job tier: a bounded-queue manager for
// asynchronous solves whose long-running algorithms stream improving
// incumbents while they search. A job moves submit → queued → running →
// done/failed/canceled/expired; while it runs, every incumbent the solver
// finds lands in a per-job progress ring that long-poll and SSE consumers
// read by sequence number. The metareasoning front-end (PlanFor) picks the
// algorithm and budget from instance features, and portfolio mode races
// branch-and-bound against a heuristic, cancelling the race as soon as the
// bound gap closes under the plan's threshold.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// State is a job's lifecycle position.
type State string

// Job states. Expired covers a queued job whose deadline passed before a
// worker picked it up; TTL reaping of finished jobs deletes them instead
// of transitioning them.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateExpired  State = "expired"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateExpired:
		return true
	}
	return false
}

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; clients back off and retry.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// Request describes one submitted solve.
type Request struct {
	Tree *repro.Tree
	// Algorithm pins the solver; empty lets the Planner choose.
	Algorithm repro.Algorithm
	Weights   repro.Weights
	Seed      int64
	Budget    int
	// Deadline bounds the whole job (queue wait plus solve) from
	// submission; anytime solvers return their best-so-far when it
	// expires. Zero means no deadline.
	Deadline time.Duration
	// Portfolio forces portfolio mode; the Planner may also select it.
	Portfolio bool
	// Warm optionally seeds the search.
	Warm *repro.Assignment
}

// Incumbent is one ring entry: a streamed improvement stamped with its
// sequence number, source algorithm and arrival time.
type Incumbent struct {
	Seq        int
	Algorithm  repro.Algorithm
	Delay      float64
	LowerBound float64
	Work       int
	Elapsed    time.Duration
}

// Gap reports the relative bound gap, or -1 without a bound.
func (inc Incumbent) Gap() float64 {
	if inc.LowerBound <= 0 {
		return -1
	}
	return (inc.Delay - inc.LowerBound) / inc.LowerBound
}

// Config parameterises a Manager. Service is required.
type Config struct {
	// Service executes the solves; an exact outcome is stored in its
	// result cache and answers an identical later job.
	Service *repro.Service
	// Workers sizes the worker pool (default 2).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (default 256).
	QueueDepth int
	// ResultTTL reaps finished jobs this long after completion
	// (default 10m; negative disables reaping).
	ResultTTL time.Duration
	// RingSize bounds each job's incumbent ring (default 64): consumers
	// that fall further behind lose the oldest entries, never the newest.
	RingSize int
	// SelfTag, when non-empty, prefixes every job ID ("<tag>-<random>")
	// so cluster peers can route job calls to the owning node from the
	// ID alone, exactly like pinned sessions.
	SelfTag string
}

// Stats is a snapshot of the manager's counters for /debug/vars.
type Stats struct {
	Submitted  int64 `json:"submitted"`
	Completed  int64 `json:"completed"`
	Canceled   int64 `json:"canceled"`
	Expired    int64 `json:"expired"`
	Failed     int64 `json:"failed"`
	Reaped     int64 `json:"reaped"`
	QueueDepth int   `json:"queue_depth"`
	Running    int   `json:"running"`
	Live       int   `json:"live"`

	// Work accounting summed over finished solves that ran (result-cache
	// hits add nothing): Outcome.Work as explored, except that an answer
	// the Pareto DP proved counts its Work, frontier points rather than
	// search nodes, as dp_points; and branches pruned.
	Explored int64 `json:"explored"`
	DPPoints int64 `json:"dp_points"`
	Pruned   int64 `json:"pruned"`
}

// Manager owns the job table, the bounded queue and the worker pool. Its
// solves run on Config.Service and so share the Service's result cache
// with every other solve there: a resubmitted identical instance whose
// earlier job finished exact is a hit that searches no node.
type Manager struct {
	cfg    Config
	queue  chan *Job
	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool

	mu   sync.Mutex
	jobs map[string]*Job

	submitted, completed, canceled atomic.Int64
	expired, failed, reaped        atomic.Int64
	running                        atomic.Int64

	explored, dpPoints atomic.Int64
	pruned             atomic.Int64
}

// New starts a Manager with cfg.Workers workers.
func New(cfg Config) *Manager {
	if cfg.Service == nil {
		panic("jobs: Config.Service is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.ResultTTL == 0 {
		cfg.ResultTTL = 10 * time.Minute
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueDepth),
		ctx:   ctx,
		stop:  stop,
		jobs:  map[string]*Job{},
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close cancels every running job, stops the workers and waits for them.
// Queued jobs are marked canceled.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		return
	}
	m.stop()
	m.wg.Wait()
	// Drain whatever the workers never picked up.
	for {
		select {
		case j := <-m.queue:
			j.transition(StateQueued, StateCanceled, nil, nil, &m.canceled)
		default:
			return
		}
	}
}

// Submit enqueues a job, returning ErrQueueFull when the bounded queue is
// at capacity.
func (m *Manager) Submit(req Request) (*Job, error) {
	if req.Tree == nil {
		return nil, fmt.Errorf("jobs: nil tree")
	}
	if m.closed.Load() {
		return nil, ErrClosed
	}
	m.reap()
	j := &Job{
		ID:        m.mintID(),
		m:         m,
		req:       req,
		state:     StateQueued,
		submitted: time.Now(),
		notify:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.mu.Unlock()
	select {
	case m.queue <- j:
	default:
		m.mu.Lock()
		delete(m.jobs, j.ID)
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.submitted.Add(1)
	return j, nil
}

// Get returns the job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	return j, ok
}

// Cancel stops a queued or running job. It reports whether the job exists;
// cancelling an already-terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.Cancel()
	return j, true
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	m.reap()
	m.mu.Lock()
	live := len(m.jobs)
	m.mu.Unlock()
	return Stats{
		Submitted:  m.submitted.Load(),
		Completed:  m.completed.Load(),
		Canceled:   m.canceled.Load(),
		Expired:    m.expired.Load(),
		Failed:     m.failed.Load(),
		Reaped:     m.reaped.Load(),
		QueueDepth: len(m.queue),
		Running:    int(m.running.Load()),
		Live:       live,
		Explored:   m.explored.Load(),
		DPPoints:   m.dpPoints.Load(),
		Pruned:     m.pruned.Load(),
	}
}

// QueueDepth reports the number of queued-but-not-running jobs; the
// planner reads it to scale effort under pressure.
func (m *Manager) QueueDepth() int { return len(m.queue) }

func (m *Manager) mintID() string {
	var raw [16]byte
	rand.Read(raw[:])
	id := hex.EncodeToString(raw[:])
	if m.cfg.SelfTag != "" {
		id = m.cfg.SelfTag + "-" + id
	}
	return id
}

// reap deletes finished jobs past the retention TTL.
func (m *Manager) reap() {
	ttl := m.cfg.ResultTTL
	if ttl <= 0 {
		return
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, j := range m.jobs {
		j.mu.Lock()
		gone := j.state.Terminal() && now.Sub(j.finished) > ttl
		j.mu.Unlock()
		if gone {
			delete(m.jobs, id)
			m.reaped.Add(1)
		}
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one dequeued job end to end.
func (m *Manager) run(j *Job) {
	// A queued job may already be canceled, or its whole deadline may have
	// burned in the queue.
	if j.req.Deadline > 0 && time.Since(j.submitted) >= j.req.Deadline {
		j.transition(StateQueued, StateExpired, nil, context.DeadlineExceeded, &m.expired)
		return
	}
	ctx, cancel := context.WithCancel(m.ctx)
	if !j.start(cancel) {
		cancel()
		return // canceled while queued
	}
	defer cancel()
	m.running.Add(1)
	defer m.running.Add(-1)

	if j.req.Deadline > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithDeadline(ctx, j.submitted.Add(j.req.Deadline))
		defer tcancel()
	}

	plan := PlanFor(FeaturesOf(j.req, len(m.queue)))
	j.setPlan(plan)

	var out *repro.Outcome
	var err error
	if plan.Portfolio {
		out, err = m.portfolio(ctx, j, plan)
	} else {
		var how repro.CacheStatus
		out, how, err = m.cfg.Service.Solve(ctx, j.req.Tree, m.solveOpts(j, plan, plan.Algorithm)...)
		m.noteOutcome(out, how)
	}

	switch {
	// Cancel outranks the result: an anytime solver answers cancellation
	// with a best-effort partial (err == nil), which must not read as a
	// completed job.
	case j.CancelRequested():
		if err == nil {
			err = context.Canceled
		}
		j.transition(StateRunning, StateCanceled, nil, err, &m.canceled)
	case err == nil:
		j.transition(StateRunning, StateDone, out, nil, &m.completed)
	default:
		j.transition(StateRunning, StateFailed, nil, err, &m.failed)
	}
}

// noteOutcome folds one finished solve's work accounting into the
// manager counters. Only a miss ran a solve: a result-cache hit serves
// an outcome solved earlier, and a failed solve (nil outcome)
// contributes nothing.
func (m *Manager) noteOutcome(out *repro.Outcome, how repro.CacheStatus) {
	if out == nil || how != repro.CacheMiss {
		return
	}
	if out.DP {
		m.dpPoints.Add(int64(out.Work))
	} else {
		m.explored.Add(int64(out.Work))
	}
	m.pruned.Add(int64(out.Pruned))
}

// solveOpts assembles one solve's option list: the request parameters,
// the plan's algorithm and budget, best-effort mode and the incumbent
// hook feeding the job's ring.
func (m *Manager) solveOpts(j *Job, plan Plan, alg repro.Algorithm) []repro.Option {
	opts := []repro.Option{
		repro.WithAlgorithm(alg),
		repro.WithSeed(j.req.Seed),
		repro.WithBestEffort(),
		repro.WithIncumbents(func(inc repro.Incumbent) { j.record(alg, inc) }),
	}
	if budget := j.req.Budget; budget != 0 {
		opts = append(opts, repro.WithBudget(budget))
	} else if plan.Budget != 0 && alg == plan.Algorithm {
		opts = append(opts, repro.WithBudget(plan.Budget))
	}
	if j.req.Weights != (repro.Weights{}) {
		opts = append(opts, repro.WithWeights(j.req.Weights))
	}
	if j.req.Warm != nil {
		opts = append(opts, repro.WithWarmStart(j.req.Warm))
	}
	return opts
}

// portfolio races the plan's exact algorithm against its heuristic on a
// shared incumbent aggregator. The race ends early when the exact side
// completes (its answer is proven) or when any incumbent's delay closes
// within GapThreshold of the best lower bound; the loser is canceled
// through the shared context and its best-effort result merely joins the
// comparison.
func (m *Manager) portfolio(ctx context.Context, j *Job, plan Plan) (*repro.Outcome, error) {
	raceCtx, stopRace := context.WithCancel(ctx)
	defer stopRace()

	var mu sync.Mutex
	bestDelay := math.Inf(1)
	var bound float64
	note := func(inc repro.Incumbent) {
		mu.Lock()
		if inc.Delay < bestDelay {
			bestDelay = inc.Delay
		}
		if inc.LowerBound > bound {
			bound = inc.LowerBound
		}
		closed := bound > 0 && bestDelay <= bound*(1+plan.GapThreshold)
		mu.Unlock()
		if closed {
			stopRace()
		}
	}

	runLane := func(alg repro.Algorithm) lane {
		opts := m.solveOpts(j, plan, alg)
		// Appending a second WithIncumbents overrides the plain ring hook
		// solveOpts installed with one that also feeds the aggregator.
		opts = append(opts, repro.WithIncumbents(func(inc repro.Incumbent) {
			j.record(alg, inc)
			note(inc)
		}))
		out, how, err := m.cfg.Service.Solve(raceCtx, j.req.Tree, opts...)
		m.noteOutcome(out, how)
		return lane{out: out, err: err}
	}

	heurCh := make(chan lane, 1)
	go func() { heurCh <- runLane(plan.Heuristic) }()
	exact := runLane(plan.Algorithm)
	if exact.err == nil && exact.out.Exact {
		// Proven optimum: the heuristic lane has nothing left to add.
		stopRace()
	}
	heur := <-heurCh

	mu.Lock()
	raceBound := bound
	mu.Unlock()
	winner := pickWinner(exact, heur)
	if winner.err != nil {
		return nil, winner.err
	}
	out := winner.out
	if !out.Exact && raceBound > out.LowerBound {
		// Graft the exact lane's bound onto a heuristic winner so the
		// reported gap reflects everything the race proved.
		clone := *out
		clone.LowerBound = raceBound
		out = &clone
	}
	return out, nil
}

// lane is one side of a portfolio race.
type lane struct {
	out *repro.Outcome
	err error
}

// pickWinner prefers a proven-exact outcome, then the lower delay; a lane
// that errored loses to any lane with a result.
func pickWinner(a, b lane) lane {
	switch {
	case a.err != nil:
		return b
	case b.err != nil:
		return a
	case a.out.Exact != b.out.Exact:
		if a.out.Exact {
			return a
		}
		return b
	case b.out.Delay < a.out.Delay:
		return b
	default:
		return a
	}
}
