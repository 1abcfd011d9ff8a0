// Anytime jobs: start the crserve HTTP stack in-process, put a hard
// instance under a deadline it cannot meet exactly and inspect the
// returned partial result — feasible, with a proven lower bound — then
// submit it unconstrained and watch the incumbent stream close its
// bound gap live over Server-Sent Events. A final rushed resubmit shows
// the job tier's result cache: once a search has proven the instance,
// the stored optimum is served instantly, deadline or not.
// The same calls work against a standalone `crserve -addr :8080` with
// curl (see the README's "Anytime jobs").
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/api"
	"repro/internal/httpserve"
	"repro/internal/workload"
)

func main() {
	// --- the server side: what `crserve` assembles from its flags ---
	service := repro.NewService(repro.NewSolver(), 1024)
	handler := httpserve.New(httpserve.Config{
		Service:        service,
		RequestTimeout: 10 * time.Second,
		MaxInflight:    64,
		JobWorkers:     2,
	})
	defer handler.Close()
	srv := &http.Server{Handler: handler}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// A 40-CRU tree: hundreds of milliseconds of branch-and-bound, far
	// too long to sit on a synchronous request, short enough to watch.
	rng := rand.New(rand.NewSource(1))
	spec := repro.ToSpec(workload.Random(rng, workload.DefaultRandomSpec(40, 3)), "hard-40")

	// --- 1. under a deadline it cannot meet exactly (cold cache) ---
	var rushed api.JobResponse
	mustPost(base+"/v1/jobs", api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: spec, Algorithm: string(repro.BranchBound), Budget: 1 << 28},
		DeadlineMS:   50,
	}, &rushed)
	partial := pollDone(base, rushed.JobID)
	fmt.Printf("deadline 50ms: state=%s partial=%v delay=%.4g lower_bound=%.4g gap=%.1f%%\n\n",
		partial.State, partial.Result.Partial, partial.Result.Delay,
		partial.Result.LowerBound, 100*partial.Gap)

	// --- 2. unconstrained: watch the incumbent stream close the gap ---
	var job api.JobResponse
	mustPost(base+"/v1/jobs", api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: spec, Algorithm: string(repro.BranchBound), Budget: 1 << 28},
	}, &job)
	fmt.Printf("submitted job %s  state=%s\n\n", job.JobID, job.State)

	final := streamEvents(base, job.JobID)
	fmt.Printf("\njob finished: state=%s exact=%v delay=%.4g in %dms (plan: %s)\n\n",
		final.State, final.Result.Exact, final.Result.Delay, final.ElapsedMS, final.PlanReason)
	fmt.Printf("exact optimum %.4g — the 50ms deadline cost %.2f%% delay\n",
		final.Result.Delay,
		100*(partial.Result.Delay-final.Result.Delay)/final.Result.Delay)

	// --- 3. rushed again: the result cache serves the proven optimum ---
	var again api.JobResponse
	mustPost(base+"/v1/jobs", api.JobRequest{
		SolveRequest: api.SolveRequest{Spec: spec, Algorithm: string(repro.BranchBound), Budget: 1 << 28},
		DeadlineMS:   50,
	}, &again)
	hit := pollDone(base, again.JobID)
	fmt.Printf("same deadline, resubmitted: state=%s exact=%v delay=%.4g in %dms — result-cache hit, no search\n",
		hit.State, hit.Result.Exact, hit.Result.Delay, hit.ElapsedMS)
}

// streamEvents consumes the job's SSE feed, printing each improving
// incumbent, and returns the terminal response from the "done" event.
func streamEvents(base, id string) *api.JobResponse {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

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
					log.Fatal(err)
				}
				gap := "no bound yet"
				if inc.LowerBound > 0 {
					gap = fmt.Sprintf("gap %.1f%%", 100*inc.Gap)
				}
				fmt.Printf("  incumbent #%d  delay=%.4g  %-12s  after %d nodes, %dms\n",
					inc.Seq, inc.Delay, gap, inc.Work, inc.ElapsedMS)
			case "done":
				var final api.JobResponse
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					log.Fatal(err)
				}
				return &final
			}
		}
	}
	log.Fatalf("stream for %s ended without a done event: %v", id, scanner.Err())
	return nil
}

// pollDone long-polls GET /v1/jobs/{id}?wait= until the job is terminal.
func pollDone(base, id string) *api.JobResponse {
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=1000")
		if err != nil {
			log.Fatal(err)
		}
		var out api.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		switch out.State {
		case "done", "failed", "canceled", "expired":
			return &out
		}
	}
}

func mustPost(url string, req, resp any) {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var apiErr api.Error
		json.NewDecoder(r.Body).Decode(&apiErr)
		log.Fatalf("POST %s: %d %s %s", url, r.StatusCode, apiErr.Code, apiErr.Message)
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		log.Fatal(err)
	}
}
