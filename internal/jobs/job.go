package jobs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Job is one submitted solve with its progress ring. All fields behind mu;
// the exported surface hands out copies.
type Job struct {
	ID string
	m  *Manager

	req       Request
	submitted time.Time

	mu       sync.Mutex
	state    State
	plan     Plan
	planned  bool
	started  time.Time
	finished time.Time
	result   *repro.Outcome
	err      error
	cancelFn context.CancelFunc
	canceled bool // cancel requested (maybe before a terminal state landed)

	ring    []Incumbent // last RingSize improvements, oldest first
	nextSeq int

	notify chan struct{} // closed and replaced on every observable change
	done   chan struct{} // closed once, on reaching a terminal state
}

// Status is a point-in-time copy of a job's observable state.
type Status struct {
	ID        string
	State     State
	Request   Request
	Plan      Plan
	Planned   bool
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Incumbents is the retained tail of the progress ring, oldest first.
	Incumbents []Incumbent
	// NextSeq is the sequence number the next incumbent will get; an SSE
	// consumer resumes from the last Seq it saw.
	NextSeq int
	// Result is set in StateDone.
	Result *repro.Outcome
	// Err is set in StateFailed (and carries the cause for canceled and
	// expired jobs when one exists).
	Err error
}

// Gap reports the result's relative bound gap: 0 for a proven optimum,
// (delay-bound)/bound for a partial result with a bound, -1 otherwise.
func (st Status) Gap() float64 {
	if st.Result == nil {
		return -1
	}
	if st.Result.Exact {
		return 0
	}
	if lb := st.Result.LowerBound; lb > 0 {
		return (st.Result.Delay - lb) / lb
	}
	return -1
}

// Snapshot copies the job's observable state.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:         j.ID,
		State:      j.state,
		Request:    j.req,
		Plan:       j.plan,
		Planned:    j.planned,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
		Incumbents: append([]Incumbent(nil), j.ring...),
		NextSeq:    j.nextSeq,
		Result:     j.result,
		Err:        j.err,
	}
}

// Tree returns the job's problem instance.
func (j *Job) Tree() *repro.Tree { return j.req.Tree }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Changed returns a channel closed at the next observable change (new
// incumbent, state transition). Callers re-arm by calling it again.
func (j *Job) Changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.notify
}

// IncumbentsSince returns the retained incumbents with Seq >= seq, oldest
// first. Entries that fell out of the ring are gone; the first returned
// Seq tells the consumer how much it missed.
func (j *Job) IncumbentsSince(seq int) []Incumbent {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, inc := range j.ring {
		if inc.Seq >= seq {
			return append([]Incumbent(nil), j.ring[i:]...)
		}
	}
	return nil
}

// Cancel requests cancellation: a queued job terminates immediately, a
// running one has its context canceled and terminates when the solver
// returns. Terminal jobs are untouched.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.canceled = true
	cancel := j.cancelFn
	if j.state == StateQueued {
		// The worker that eventually dequeues it sees the terminal state
		// and skips it.
		j.finishLocked(StateCanceled, nil, context.Canceled, &j.m.canceled)
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// CancelRequested reports whether Cancel was called.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// Wait blocks until the job is terminal, ctx expires, or — when wait > 0 —
// that duration passes. It returns the state at the time it unblocked.
func (j *Job) Wait(ctx context.Context, wait time.Duration) State {
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	case <-timeout:
	}
	return j.State()
}

// start moves queued → running, installing the cancel hook. It reports
// false when the job is no longer runnable (canceled while queued).
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancelFn = cancel
	j.notifyLocked()
	return true
}

// setPlan records the planner's decision for introspection.
func (j *Job) setPlan(p Plan) {
	j.mu.Lock()
	j.plan = p
	j.planned = true
	j.notifyLocked()
	j.mu.Unlock()
}

// record appends one incumbent to the ring, evicting the oldest entry
// past the capacity, and wakes watchers. It runs on the solver goroutine.
func (j *Job) record(alg repro.Algorithm, inc repro.Incumbent) {
	j.mu.Lock()
	entry := Incumbent{
		Seq:        j.nextSeq,
		Algorithm:  alg,
		Delay:      inc.Delay,
		LowerBound: inc.LowerBound,
		Work:       inc.Work,
		Elapsed:    time.Since(j.submitted),
	}
	j.nextSeq++
	if len(j.ring) >= j.m.cfg.RingSize {
		copy(j.ring, j.ring[1:])
		j.ring = j.ring[:len(j.ring)-1]
	}
	j.ring = append(j.ring, entry)
	j.notifyLocked()
	j.mu.Unlock()
}

// transition moves from → to with the given result and bumps n, the
// manager counter of the terminal state to. It does nothing when the
// state already moved elsewhere (e.g. a cancel landed first).
func (j *Job) transition(from, to State, out *repro.Outcome, err error, n *atomic.Int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == from {
		j.finishLocked(to, out, err, n)
	}
}

// finishLocked moves the job to the terminal state to. It bumps n before
// closing done, so Manager.Stats read after Wait returns counts the job.
func (j *Job) finishLocked(to State, out *repro.Outcome, err error, n *atomic.Int64) {
	j.state = to
	j.result = out
	j.err = err
	j.finished = time.Now()
	n.Add(1)
	j.notifyLocked()
	close(j.done)
}

// notifyLocked wakes every watcher by closing the current notify channel
// and arming a fresh one. Callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}
