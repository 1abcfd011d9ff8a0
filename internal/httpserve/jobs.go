package httpserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/api"
	"repro/internal/jobs"
)

// maxLongPoll caps GET /v1/jobs/{id}?wait= so a typo cannot park a
// connection for hours.
const maxLongPoll = 60 * time.Second

// handleJobSubmit enqueues an asynchronous solve. Like session opens, the
// submit is routed (unhedged — a raced submit would mint a duplicate job)
// to the instance fingerprint's ring owner, so a job's progress ring and
// result live next to the instance's cache entries.
//
//	POST /v1/jobs
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.jobSubmits.Add(1)
	var req api.JobRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer body.release()
	if err := req.Validate(); err != nil {
		s.fail(w, err)
		return
	}
	tree, err := req.Tree()
	if err != nil {
		s.fail(w, err)
		return
	}
	if s.maybeForward(w, r, repro.Fingerprint(tree), body, false) {
		return
	}
	job, err := s.jobs.Submit(req.JobSpec(tree))
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			s.fail(w, &api.Error{Code: api.CodeOverloaded, Message: "job queue full; retry with backoff"})
			return
		}
		s.fail(w, err)
		return
	}
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, api.NewJobResponse(job.Snapshot()))
}

// handleJobGet reports a job's snapshot. A wait= query (milliseconds)
// long-polls: the response is delayed until the job reaches a terminal
// state or the wait expires, whichever is first.
//
//	GET /v1/jobs/{id}[?wait=ms]
func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.lookupJob(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		ms, perr := strconv.ParseInt(waitStr, 10, 64)
		if perr != nil || ms < 0 {
			s.fail(w, &api.Error{Code: api.CodeInvalidRequest, Message: fmt.Sprintf("bad wait %q", waitStr)})
			return
		}
		wait := time.Duration(ms) * time.Millisecond
		if wait > maxLongPoll {
			wait = maxLongPoll
		}
		if wait > 0 {
			job.Wait(r.Context(), wait)
		}
	}
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, api.NewJobResponse(job.Snapshot()))
}

// handleJobEvents streams the job's incumbents as Server-Sent Events:
// one "incumbent" event per ring entry from from_seq (default: all
// retained), then a final "done" event carrying the full job response
// when the job reaches a terminal state. The stream deliberately runs on
// the request's own context — the server-wide request timeout does not
// apply to a watch.
//
//	GET /v1/jobs/{id}/events[?from_seq=n]
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, err := s.lookupJob(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, &api.Error{Code: api.CodeInternal, Message: "response writer cannot stream"})
		return
	}
	seq := 0
	if fromStr := r.URL.Query().Get("from_seq"); fromStr != "" {
		n, perr := strconv.Atoi(fromStr)
		if perr != nil || n < 0 {
			s.fail(w, &api.Error{Code: api.CodeInvalidRequest, Message: fmt.Sprintf("bad from_seq %q", fromStr)})
			return
		}
		seq = n
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	s.stampSelf(w)
	w.WriteHeader(http.StatusOK)

	for {
		// Arm the change channel before reading, so an incumbent landing
		// between the read and the select wakes the next iteration instead
		// of being missed.
		changed := job.Changed()
		for _, inc := range job.IncumbentsSince(seq) {
			writeEvent(w, "incumbent", strconv.Itoa(inc.Seq), api.NewJobIncumbent(inc))
			seq = inc.Seq + 1
		}
		if st := job.Snapshot(); st.State.Terminal() {
			writeEvent(w, "done", "", api.NewJobResponse(st))
			flusher.Flush()
			return
		}
		flusher.Flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one SSE frame.
func writeEvent(w http.ResponseWriter, event, id string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	if id != "" {
		fmt.Fprintf(w, "id: %s\n", id)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleJobCancel cancels a queued or running job through the manager's
// context plumbing; cancelling a terminal job is a no-op that reports the
// final state.
//
//	DELETE /v1/jobs/{id}
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.lookupJob(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	job.Cancel()
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, api.NewJobResponse(job.Snapshot()))
}

// lookupJob resolves the {id} path segment.
func (s *server) lookupJob(r *http.Request) (*jobs.Job, error) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		return nil, &api.Error{
			Code:    api.CodeNotFound,
			Message: fmt.Sprintf("unknown job %q", id),
		}
	}
	return job, nil
}
