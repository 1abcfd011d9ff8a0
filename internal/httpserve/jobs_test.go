package httpserve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/api"
)

// submitJob posts a job and decodes the accepted snapshot.
func submitJob(t *testing.T, base string, req *api.JobRequest) *api.JobResponse {
	t.Helper()
	resp, body := post(t, base+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var out api.JobResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding job response: %v", err)
	}
	if out.JobID == "" {
		t.Fatalf("job response carries no id: %s", body)
	}
	return &out
}

// pollJob long-polls until the job is terminal or the deadline passes.
func pollJob(t *testing.T, base, id string, timeout time.Duration) *api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=500")
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var out api.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding poll: %v", err)
		}
		if jobStateTerminal(out.State) {
			return &out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, out.State)
		}
	}
}

func jobStateTerminal(state string) bool {
	switch state {
	case "done", "failed", "canceled", "expired":
		return true
	}
	return false
}

func TestJobEndpointLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	spec := testSpec("job-life")

	// The synchronous answer is the reference the async path must match.
	sync, _ := solveVia(t, srv.URL, &api.SolveRequest{Spec: spec})

	accepted := submitJob(t, srv.URL, &api.JobRequest{SolveRequest: api.SolveRequest{Spec: spec}})
	if jobStateTerminal(accepted.State) && accepted.State != "done" {
		t.Fatalf("fresh job in state %q", accepted.State)
	}
	final := pollJob(t, srv.URL, accepted.JobID, 10*time.Second)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("final = %q result=%v error=%v", final.State, final.Result, final.Error)
	}
	if final.Result.Delay != sync.Delay {
		t.Fatalf("async delay %v != sync %v", final.Result.Delay, sync.Delay)
	}
	if !final.Result.Exact || final.Gap != 0 {
		t.Fatalf("small instance should prove optimality: exact=%v gap=%v", final.Result.Exact, final.Gap)
	}
	if len(final.Incumbents) == 0 || final.NextSeq == 0 {
		t.Fatalf("no incumbents on the wire: %+v", final)
	}
	if final.PlanReason == "" || final.Algorithm == "" {
		t.Fatalf("plan not reported: %+v", final)
	}

	// The job tier surfaces in /debug/vars.
	vars, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vars.Body.Close()
	var doc struct {
		Crserve struct {
			Jobs     map[string]any   `json:"jobs"`
			Requests map[string]int64 `json:"requests"`
		} `json:"crserve"`
	}
	if err := json.NewDecoder(vars.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Crserve.Jobs["submitted"] != float64(1) || doc.Crserve.Requests["job_submit"] != 1 {
		t.Fatalf("job counters not exported: %+v", doc.Crserve)
	}
}

// TestJobDeadlineVsExactOverHTTP is the wire-level acceptance: the same
// instance submitted with a deadline far below its exact solve time comes
// back done with a feasible partial result and a positive bound gap, while
// the unconstrained submit reaches the proven optimum.
func TestJobDeadlineVsExactOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	spec := randomSpec(1, 40) // ~400ms of unconstrained branch-and-bound

	// The deadline job runs first: the tier's caches are cold, so the
	// 50ms budget genuinely truncates the search. (Submitted after the
	// unconstrained job it would get that job's exact outcome from the
	// Service's result cache and come back exact in microseconds.)
	rushed := submitJob(t, srv.URL, &api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: spec, Algorithm: string(repro.BranchBound), Budget: 1 << 28},
		DeadlineMS:   50,
	})
	partial := pollJob(t, srv.URL, rushed.JobID, 10*time.Second)

	full := submitJob(t, srv.URL, &api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: spec, Algorithm: string(repro.BranchBound), Budget: 1 << 28},
	})
	exact := pollJob(t, srv.URL, full.JobID, time.Minute)
	if exact.State != "done" || exact.Result == nil || !exact.Result.Exact {
		t.Fatalf("unconstrained job: state=%q result=%+v", exact.State, exact.Result)
	}
	if exact.Gap != 0 {
		t.Fatalf("proven optimum should report gap 0, got %v", exact.Gap)
	}

	if partial.State != "done" || partial.Result == nil {
		t.Fatalf("deadline job: state=%q error=%+v", partial.State, partial.Error)
	}
	if !partial.Result.Partial {
		t.Fatalf("deadline job returned a non-partial result in %dms", partial.ElapsedMS)
	}
	if len(partial.Result.Assignment) == 0 {
		t.Fatal("partial result carries no assignment")
	}
	if partial.Result.LowerBound <= 0 || partial.Gap < 0 {
		t.Fatalf("partial result must report its bound gap: lb=%v gap=%v", partial.Result.LowerBound, partial.Gap)
	}
	if partial.Result.Delay < exact.Result.Delay {
		t.Fatalf("partial %v beats the optimum %v", partial.Result.Delay, exact.Result.Delay)
	}
}

// TestJobEventsStreamSSE: the SSE stream delivers at least one incumbent
// event before the terminal "done" event on an instance large enough to
// search for a while.
func TestJobEventsStreamSSE(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	spec := randomSpec(1, 40)

	accepted := submitJob(t, srv.URL, &api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: spec, Algorithm: string(repro.BranchBound), Budget: 1 << 28},
		DeadlineMS:   400,
	})
	resp, err := http.Get(srv.URL + "/v1/jobs/" + accepted.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var incumbents int
	var done *api.JobResponse
	var event string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "incumbent":
				var inc api.JobIncumbent
				if err := json.Unmarshal([]byte(data), &inc); err != nil {
					t.Fatalf("bad incumbent frame: %v in %q", err, data)
				}
				if inc.Seq != incumbents {
					t.Fatalf("incumbent seq %d, want %d", inc.Seq, incumbents)
				}
				incumbents++
			case "done":
				done = &api.JobResponse{}
				if err := json.Unmarshal([]byte(data), done); err != nil {
					t.Fatalf("bad done frame: %v", err)
				}
			}
		}
		if done != nil {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if incumbents == 0 {
		t.Fatal("SSE delivered no incumbent before completion")
	}
	if done == nil || done.State != "done" || done.Result == nil {
		t.Fatalf("stream ended without a done event: %+v", done)
	}
}

func TestJobCancelEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	spec := randomSpec(2, 64) // unconstrained bnb never finishes in test time

	accepted := submitJob(t, srv.URL, &api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: spec, Algorithm: string(repro.BranchBound), Budget: 1 << 40},
	})
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+accepted.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	final := pollJob(t, srv.URL, accepted.JobID, 10*time.Second)
	if final.State != "canceled" {
		t.Fatalf("state after cancel = %q", final.State)
	}
}

func TestJobEndpointErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	if resp, _ := post(t, srv.URL+"/v1/jobs", &api.JobRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing spec: %d", resp.StatusCode)
	}
	if resp, _ := post(t, srv.URL+"/v1/jobs", &api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: testSpec("neg")}, DeadlineMS: -1,
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline: %d", resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/v1/jobs/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v %d", err, resp.StatusCode)
	}

	accepted := submitJob(t, srv.URL, &api.JobRequest{SolveRequest: api.SolveRequest{Spec: testSpec("ok")}})
	if resp, err := http.Get(srv.URL + "/v1/jobs/" + accepted.JobID + "?wait=banana"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait: %v %d", err, resp.StatusCode)
	}
}

// TestJobQueueFullRetryAfter: a saturated job queue answers 429 with a
// Retry-After hint, and the rejected submit never enters the stats.
func TestJobQueueFullRetryAfter(t *testing.T) {
	srv, _ := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 1})
	long := func(seed int64) *api.JobRequest {
		return &api.JobRequest{
			SolveRequest: api.SolveRequest{Spec: randomSpec(seed, 64), Algorithm: string(repro.BranchBound), Budget: 1 << 40},
		}
	}
	blocker := submitJob(t, srv.URL, long(3))
	// Wait for the single worker to dequeue the blocker so the queue slot
	// frees for the next submit.
	waitRunning := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + blocker.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var out api.JobResponse
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if out.State == "running" {
			break
		}
		if time.Now().After(waitRunning) {
			t.Fatalf("blocker stuck in %q", out.State)
		}
	}
	submitJob(t, srv.URL, long(4)) // fills the queue

	resp, body := post(t, srv.URL+"/v1/jobs", long(5))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code != api.CodeOverloaded {
		t.Fatalf("error body: %s", body)
	}
}

// TestClusterJobPinning mirrors the session pinning contract for jobs:
// submits route to the instance's ring owner, the ID carries the owner
// tag, GETs via non-owners redirect there, and cancels proxy through.
func TestClusterJobPinning(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	spec := specOwnedBy(t, f, 1, 40)

	accepted := submitJob(t, f.Nodes[0].URL, &api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: spec, Algorithm: string(repro.BranchBound), Budget: 1 << 28},
		DeadlineMS:   30_000,
	})
	ownerTag := f.Nodes[1].Cluster.SelfTag()
	if !strings.HasPrefix(accepted.JobID, ownerTag+"-") {
		t.Fatalf("job id %q not pinned to owner tag %q", accepted.JobID, ownerTag)
	}

	// GET via a non-owner answers 307 to the owner…
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	get, err := noRedirect.Get(f.Nodes[2].URL + "/v1/jobs/" + accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("GET via non-owner: %d", get.StatusCode)
	}
	if loc := get.Header.Get("Location"); !strings.HasPrefix(loc, f.Nodes[1].URL) {
		t.Fatalf("redirect to %q, owner is %q", loc, f.Nodes[1].URL)
	}

	// …and a default client polls it transparently through any node.
	final := pollJob(t, f.Nodes[2].URL, accepted.JobID, time.Minute)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("cross-node poll: state=%q", final.State)
	}

	// A second job on a long search cancels through a non-owner (proxied).
	// 64 CRUs with an effectively unbounded budget: the search cannot
	// finish before the cancel arrives.
	long := submitJob(t, f.Nodes[0].URL, &api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: specOwnedBy(t, f, 1, 64), Algorithm: string(repro.BranchBound), Budget: 1 << 40},
	})
	req, _ := http.NewRequest(http.MethodDelete, f.Nodes[2].URL+"/v1/jobs/"+long.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied cancel: %d", resp.StatusCode)
	}
	if got := pollJob(t, f.Nodes[0].URL, long.JobID, 10*time.Second); got.State != "canceled" {
		t.Fatalf("state after proxied cancel = %q", got.State)
	}
}

// TestJobPortfolioOverHTTP exercises portfolio mode end to end on the
// wire: the plan reports the race, and the result arrives with a gap.
func TestJobPortfolioOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	accepted := submitJob(t, srv.URL, &api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: randomSpec(1, 40), Seed: 5},
		DeadlineMS:   2000,
		Portfolio:    true,
	})
	final := pollJob(t, srv.URL, accepted.JobID, 30*time.Second)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("portfolio job: state=%q error=%+v", final.State, final.Error)
	}
	if !final.Portfolio || final.Heuristic == "" {
		t.Fatalf("portfolio plan not reported: %+v", final)
	}
	if len(final.Incumbents) == 0 {
		t.Fatal("portfolio streamed no incumbents")
	}
}
