package jobs_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/jobs"
	"repro/internal/workload"
)

func newManager(t *testing.T, cfg jobs.Config) *jobs.Manager {
	t.Helper()
	if cfg.Service == nil {
		cfg.Service = repro.NewService(nil, 256)
	}
	m := jobs.New(cfg)
	t.Cleanup(m.Close)
	return m
}

// hardTree is an instance branch-and-bound cannot close quickly: large
// enough that an unconstrained exact search outlives any test timeout.
func hardTree() *repro.Tree {
	return workload.Random(rand.New(rand.NewSource(1)), workload.DefaultRandomSpec(64, 4))
}

// mediumTree solves exactly in a few hundred milliseconds unconstrained —
// long enough for a 50ms deadline to bind with a wide margin.
func mediumTree() *repro.Tree {
	return workload.Random(rand.New(rand.NewSource(1)), workload.DefaultRandomSpec(40, 3))
}

func TestJobLifecycleDone(t *testing.T) {
	m := newManager(t, jobs.Config{SelfTag: "n0"})
	j, err := m.Submit(jobs.Request{Tree: workload.Epilepsy(), Seed: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := j.Wait(t.Context(), 5*time.Second); got != jobs.StateDone {
		t.Fatalf("state = %v, want done", got)
	}
	st := j.Snapshot()
	if st.Result == nil || !st.Result.Exact {
		t.Fatalf("want exact result, got %+v", st.Result)
	}
	if st.Gap() != 0 {
		t.Fatalf("exact result gap = %v, want 0", st.Gap())
	}
	if len(st.Incumbents) == 0 {
		t.Fatal("no incumbents recorded")
	}
	if !st.Planned || st.Plan.Reason == "" {
		t.Fatalf("job carries no plan: %+v", st.Plan)
	}
	if got, want := st.ID[:3], "n0-"; got != want {
		t.Fatalf("ID %q not tag-prefixed", st.ID)
	}
	stats := m.Stats()
	if stats.Submitted != 1 || stats.Completed != 1 || stats.Live != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestJobDeadlinePartialVsExact is the job-tier acceptance: the same
// instance with a deadline far under its exact solve time finishes done
// with a feasible partial result and a reported bound gap; without a
// deadline it reaches the proven optimum.
func TestJobDeadlinePartialVsExact(t *testing.T) {
	tree := mediumTree()
	m := newManager(t, jobs.Config{Workers: 1})

	// The deadline job runs first, against cold caches, so the 50ms
	// deadline genuinely truncates the search; submitted after the
	// unconstrained job it would get that job's exact outcome from the
	// Service's result cache and come back exact instantly.
	rushed, err := m.Submit(jobs.Request{
		Tree: tree, Algorithm: repro.BranchBound, Budget: 1 << 28,
		Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := rushed.Wait(t.Context(), 10*time.Second); got != jobs.StateDone {
		t.Fatalf("deadline job state = %v", got)
	}
	st := rushed.Snapshot()

	full, err := m.Submit(jobs.Request{Tree: tree, Algorithm: repro.BranchBound, Budget: 1 << 28})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := full.Wait(t.Context(), time.Minute); got != jobs.StateDone {
		t.Fatalf("unconstrained job state = %v", got)
	}
	exact := full.Snapshot()
	if exact.Result == nil || !exact.Result.Exact || exact.Result.Partial {
		t.Fatalf("unconstrained job not exact: %+v", exact.Result)
	}
	if st.Result == nil || !st.Result.Partial {
		t.Fatalf("deadline job should be partial: %+v", st.Result)
	}
	if st.Result.Assignment == nil {
		t.Fatal("partial result carries no assignment")
	}
	if _, err := repro.Evaluate(tree, st.Result.Assignment); err != nil {
		t.Fatalf("partial assignment infeasible: %v", err)
	}
	if st.Result.LowerBound <= 0 || st.Gap() < 0 {
		t.Fatalf("partial result must report a bound gap: lb=%v gap=%v", st.Result.LowerBound, st.Gap())
	}
	if st.Result.Delay < exact.Result.Delay-1e-9 {
		t.Fatalf("partial %v beats proven optimum %v", st.Result.Delay, exact.Result.Delay)
	}
	if st.Finished.Sub(st.Submitted) > 5*time.Second {
		t.Fatalf("deadline job ran %v", st.Finished.Sub(st.Submitted))
	}
}

// TestJobRepeatIsResultCacheHit: an identical exact job submitted after
// an earlier one finished exact is answered from the Service's result
// cache. It searches no node, so the tier's explored count stays put,
// and it streams the one final incumbent of a hit.
func TestJobRepeatIsResultCacheHit(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1})
	req := jobs.Request{Tree: workload.Random(rand.New(rand.NewSource(2)), workload.DefaultRandomSpec(20, 3)),
		Algorithm: repro.BranchBound}
	run := func() jobs.Status {
		t.Helper()
		j, err := m.Submit(req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if got := j.Wait(t.Context(), 10*time.Second); got != jobs.StateDone {
			t.Fatalf("job state = %v", got)
		}
		st := j.Snapshot()
		if st.Result == nil || !st.Result.Exact {
			t.Fatalf("job not exact: %+v", st.Result)
		}
		return st
	}
	first := run()
	explored := m.Stats().Explored
	if explored == 0 {
		t.Fatal("first job explored no nodes")
	}
	again := run()
	if again.Result.Delay != first.Result.Delay || len(again.Incumbents) != 1 {
		t.Fatalf("repeat: delay %v, %d incumbents; want %v and 1", again.Result.Delay, len(again.Incumbents), first.Result.Delay)
	}
	if got := m.Stats().Explored; got != explored {
		t.Fatalf("repeat explored %d nodes, want 0", got-explored)
	}
}

func TestJobCancelRunningStopsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := repro.NewService(nil, 16)
	m := jobs.New(jobs.Config{Service: svc, Workers: 1})

	j, err := m.Submit(jobs.Request{Tree: hardTree(), Algorithm: repro.BranchBound, Budget: 1 << 40})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != jobs.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %v", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	j.Cancel()
	if got := j.Wait(t.Context(), 5*time.Second); got != jobs.StateCanceled {
		t.Fatalf("state = %v, want canceled", got)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("cancel took %v to stop the solver", took)
	}
	if st := m.Stats(); st.Canceled != 1 || st.Running != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// No goroutine may outlive the manager: the canceled solver and the
	// workers must all have exited.
	m.Close()
	for end := time.Now().Add(3 * time.Second); ; {
		runtime.GC()
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutine leak: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1})
	blocker, err := m.Submit(jobs.Request{Tree: hardTree(), Algorithm: repro.BranchBound, Budget: 1 << 40})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	queued, err := m.Submit(jobs.Request{Tree: workload.Epilepsy()})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	queued.Cancel()
	if got := queued.State(); got != jobs.StateCanceled {
		t.Fatalf("queued cancel: state = %v", got)
	}
	blocker.Cancel()
	if got := blocker.Wait(t.Context(), 5*time.Second); got != jobs.StateCanceled {
		t.Fatalf("blocker state = %v", got)
	}
	if st := m.Stats(); st.Canceled != 2 {
		t.Fatalf("canceled = %d, want 2", st.Canceled)
	}
}

func TestJobQueueFullAndExpiry(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 1})
	blocker, err := m.Submit(jobs.Request{Tree: hardTree(), Algorithm: repro.BranchBound, Budget: 1 << 40})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	// Give the single worker a beat to dequeue the blocker, freeing the slot.
	deadline := time.Now().Add(5 * time.Second)
	for blocker.State() != jobs.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	doomed, err := m.Submit(jobs.Request{Tree: workload.Epilepsy(), Deadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Submit doomed: %v", err)
	}
	if _, err := m.Submit(jobs.Request{Tree: workload.Epilepsy()}); err != jobs.ErrQueueFull {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	// Burn the doomed job's whole deadline in the queue, then free the
	// worker: it must expire the job rather than run it.
	time.Sleep(30 * time.Millisecond)
	blocker.Cancel()
	if got := doomed.Wait(t.Context(), 5*time.Second); got != jobs.StateExpired {
		t.Fatalf("doomed state = %v, want expired", got)
	}
	if st := m.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
}

func TestJobTTLReap(t *testing.T) {
	m := newManager(t, jobs.Config{ResultTTL: time.Millisecond})
	j, err := m.Submit(jobs.Request{Tree: workload.Epilepsy()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := j.Wait(t.Context(), 5*time.Second); got != jobs.StateDone {
		t.Fatalf("state = %v", got)
	}
	time.Sleep(5 * time.Millisecond)
	st := m.Stats() // Stats reaps
	if st.Reaped != 1 || st.Live != 0 {
		t.Fatalf("stats after TTL = %+v", st)
	}
	if _, ok := m.Get(j.ID); ok {
		t.Fatal("reaped job still resolvable")
	}
}

func TestJobPortfolio(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 2})
	j, err := m.Submit(jobs.Request{
		Tree: mediumTree(), Portfolio: true, Seed: 5,
		Deadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := j.Wait(t.Context(), 30*time.Second); got != jobs.StateDone {
		t.Fatalf("state = %v", got)
	}
	st := j.Snapshot()
	if !st.Plan.Portfolio || st.Plan.Heuristic == "" {
		t.Fatalf("plan did not race: %+v", st.Plan)
	}
	if st.Result == nil || st.Result.Assignment == nil {
		t.Fatalf("portfolio returned no result: %+v", st.Result)
	}
	if len(st.Incumbents) == 0 {
		t.Fatal("portfolio streamed no incumbents")
	}
}

func TestIncumbentRingEviction(t *testing.T) {
	m := newManager(t, jobs.Config{RingSize: 2})
	j, err := m.Submit(jobs.Request{Tree: mediumTree(), Algorithm: repro.Annealing, Seed: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := j.Wait(t.Context(), 30*time.Second); got != jobs.StateDone {
		t.Fatalf("state = %v", got)
	}
	st := j.Snapshot()
	if len(st.Incumbents) > 2 {
		t.Fatalf("ring exceeded its bound: %d entries", len(st.Incumbents))
	}
	if st.NextSeq < len(st.Incumbents) {
		t.Fatalf("NextSeq %d inconsistent with %d retained", st.NextSeq, len(st.Incumbents))
	}
	// The retained tail must be the newest entries.
	if n := len(st.Incumbents); n > 0 && st.Incumbents[n-1].Seq != st.NextSeq-1 {
		t.Fatalf("ring did not keep the newest: %+v", st.Incumbents)
	}
}

func TestPlannerPolicy(t *testing.T) {
	cases := []struct {
		name      string
		f         jobs.Features
		alg       repro.Algorithm
		portfolio bool
	}{
		{"small exact", jobs.Features{Nodes: 10, Colours: 2}, repro.BranchBound, false},
		{"rush heuristic", jobs.Features{Nodes: 60, Colours: 2, Deadline: 5 * time.Millisecond}, repro.Annealing, false},
		{"rush many colours", jobs.Features{Nodes: 60, Colours: 4, Deadline: 5 * time.Millisecond}, repro.Genetic, false},
		{"backlog sheds", jobs.Features{Nodes: 60, Colours: 2, QueueDepth: 64}, repro.Annealing, false},
		{"deadline races", jobs.Features{Nodes: 60, Colours: 2, Deadline: time.Second}, repro.ParallelBnB, true},
		{"deadline races mid-size sequential", jobs.Features{Nodes: 40, Colours: 2, Deadline: time.Second}, repro.BranchBound, true},
		{"explicit portfolio", jobs.Features{Nodes: 60, Colours: 2, Portfolio: true}, repro.ParallelBnB, true},
		{"explicit portfolio on small instance", jobs.Features{Nodes: 10, Colours: 2, Portfolio: true}, repro.BranchBound, true},
		{"no deadline mid-size exact", jobs.Features{Nodes: 40, Colours: 2}, repro.BranchBound, false},
		{"no deadline large goes parallel", jobs.Features{Nodes: 60, Colours: 2}, repro.ParallelBnB, false},
		{"pinned", jobs.Features{Nodes: 60, Colours: 2, Algorithm: repro.Genetic}, repro.Genetic, false},
	}
	for _, tc := range cases {
		plan := jobs.PlanFor(tc.f)
		if plan.Algorithm != tc.alg || plan.Portfolio != tc.portfolio {
			t.Errorf("%s: plan = %s portfolio=%v, want %s/%v (reason %q)",
				tc.name, plan.Algorithm, plan.Portfolio, tc.alg, tc.portfolio, plan.Reason)
		}
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	m := jobs.New(jobs.Config{Service: repro.NewService(nil, 16)})
	m.Close()
	if _, err := m.Submit(jobs.Request{Tree: workload.Epilepsy()}); err != jobs.ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
