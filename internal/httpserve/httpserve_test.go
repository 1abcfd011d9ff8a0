package httpserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/api"
	"repro/internal/cluster"
	"repro/internal/exact/exacttest"
)

func testSpec(name string) *repro.Spec {
	return &repro.Spec{
		Name:       name,
		Satellites: []string{"R", "G"},
		CRUs: []repro.SpecCRU{
			{Name: "root", HostTime: 3, SatTime: 9},
			{Name: "left", Parent: "root", HostTime: 2, SatTime: 6, Comm: 0.5},
			{Name: "right", Parent: "root", HostTime: 1, SatTime: 3, Comm: 0.25},
		},
		Sensors: []repro.SpecSensor{
			{Name: "sL", Parent: "left", Satellite: "R", Comm: 4},
			{Name: "sR", Parent: "right", Satellite: "G", Comm: 2},
		},
	}
}

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *repro.Service) {
	t.Helper()
	if cfg.Service == nil {
		cfg.Service = repro.NewService(nil, 128)
	}
	h := New(cfg)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return srv, cfg.Service
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestSolveEndpoint(t *testing.T) {
	srv, svc := newTestServer(t, Config{})

	req := api.SolveRequest{Spec: testSpec("s")}
	resp, body := post(t, srv.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr api.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if sr.APIVersion != api.Version || sr.Algorithm != string(repro.AdaptedSSB) || !sr.Exact {
		t.Fatalf("response %+v", sr)
	}
	if sr.Cached {
		t.Fatal("first request reported cached")
	}
	if sr.Fingerprint == "" || sr.Assignment["root"] != "host" {
		t.Fatalf("response %+v", sr)
	}

	// The identical request again is a cache hit with the same answer.
	resp2, body2 := post(t, srv.URL+"/v1/solve", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	var sr2 api.SolveResponse
	if err := json.Unmarshal(body2, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if sr2.Delay != sr.Delay || sr2.Fingerprint != sr.Fingerprint {
		t.Fatalf("cached answer diverged: %+v vs %+v", sr2, sr)
	}
	if st := svc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss + 1 hit", st)
	}
}

func TestSolveErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	check := func(body any, wantStatus int, wantCode api.ErrorCode) {
		t.Helper()
		resp, raw := post(t, srv.URL+"/v1/solve", body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, raw)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != wantCode {
			t.Fatalf("error body %s, want code %s", raw, wantCode)
		}
	}

	check(api.SolveRequest{}, http.StatusBadRequest, api.CodeInvalidRequest)
	check(api.SolveRequest{Spec: testSpec("x"), Algorithm: "no-such"},
		http.StatusBadRequest, api.CodeUnknownAlgorithm)
	check(map[string]any{"spec": testSpec("y"), "algorithmm": "typo"},
		http.StatusBadRequest, api.CodeInvalidRequest)

	// Malformed spec: sensor on an undeclared satellite.
	bad := testSpec("z")
	bad.Sensors[0].Satellite = "nope"
	check(api.SolveRequest{Spec: bad}, http.StatusBadRequest, api.CodeInvalidRequest)
}

func TestBatchEndpoint(t *testing.T) {
	srv, svc := newTestServer(t, Config{})

	good := testSpec("a")
	scaled := testSpec("b")
	scaled.CRUs[1].HostTime = 7 // a genuinely different instance
	bad := testSpec("c")
	bad.Sensors[0].Satellite = "nope"

	req := api.BatchRequest{Items: []api.SolveRequest{
		{Spec: good},
		{Spec: bad},
		{Spec: scaled},
		{Spec: good}, // duplicate of item 0: dedup inside the batch
	}}
	resp, body := post(t, srv.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 4 {
		t.Fatalf("%d items, want 4", len(br.Items))
	}
	for _, i := range []int{0, 2, 3} {
		if br.Items[i].Error != nil {
			t.Fatalf("item %d failed: %+v", i, br.Items[i].Error)
		}
	}
	if br.Items[1].Error == nil || br.Items[1].Error.Code != api.CodeInvalidRequest {
		t.Fatalf("bad item survived: %+v", br.Items[1])
	}
	if br.Items[0].Response.Fingerprint != br.Items[3].Response.Fingerprint {
		t.Fatal("duplicate items got different fingerprints")
	}
	if br.Items[0].Response.Fingerprint == br.Items[2].Response.Fingerprint {
		t.Fatal("distinct instances share a fingerprint")
	}
	// The duplicated instance must have been solved once: 2 unique
	// solves (misses) for 3 solvable items.
	if st := svc.Stats(); st.Misses != 2 || st.Hits+st.Shared != 1 {
		t.Fatalf("stats %+v, want 2 misses and 1 hit/shared", st)
	}

	// Oversized batches are rejected up front.
	small, _ := newTestServer(t, Config{MaxBatchItems: 1})
	resp2, raw := post(t, small.URL+"/v1/batch", req)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d body %s", resp2.StatusCode, raw)
	}
}

// TestConcurrentIdenticalRequests is the serving-layer dedup guarantee:
// N concurrent identical requests produce exactly one underlying solve —
// whichever way they interleave, every request beyond the first is a
// cache hit or joins the in-flight solve.
func TestConcurrentIdenticalRequests(t *testing.T) {
	srv, svc := newTestServer(t, Config{})
	const n = 8

	req := api.SolveRequest{Spec: testSpec("dup")}
	var wg sync.WaitGroup
	delays := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, srv.URL+"/v1/solve", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var sr api.SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			delays[i] = sr.Delay
		}(i)
	}
	wg.Wait()

	st := svc.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d identical concurrent requests ran %d solves, want 1 (stats %+v)", n, st.Misses, st)
	}
	if st.Hits+st.Shared != n-1 {
		t.Fatalf("hits(%d)+shared(%d) != %d (stats %+v)", st.Hits, st.Shared, n-1, st)
	}
	for i := 1; i < n; i++ {
		if delays[i] != delays[0] {
			t.Fatalf("request %d got delay %v, request 0 got %v", i, delays[i], delays[0])
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	req := api.SimulateRequest{
		SolveRequest: api.SolveRequest{Spec: testSpec("sim")},
		Mode:         "overlapped",
		Frames:       4,
		Interval:     1,
	}
	resp, body := post(t, srv.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr api.SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Frames != 4 || sr.Makespan <= 0 || sr.Throughput <= 0 {
		t.Fatalf("simulate response %+v", sr)
	}
	if sr.Delay <= 0 {
		t.Fatalf("missing analytic delay: %+v", sr)
	}

	// Relying on the default mode still reports the canonical name.
	_, body = post(t, srv.URL+"/v1/simulate",
		api.SimulateRequest{SolveRequest: api.SolveRequest{Spec: testSpec("sim-default")}})
	var def api.SimulateResponse
	if err := json.Unmarshal(body, &def); err != nil {
		t.Fatal(err)
	}
	if def.Mode != "paper-barrier" {
		t.Fatalf("default mode echoed as %q, want paper-barrier", def.Mode)
	}

	req.Mode = "warp"
	if resp, _ := post(t, srv.URL+"/v1/simulate", req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d", resp.StatusCode)
	}
}

func TestAlgorithmsHealthzVars(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	resp, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var ar api.AlgorithmsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ar.Algorithms) == 0 {
		t.Fatal("no algorithms listed")
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(buf.String()) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, buf.String())
	}

	// Warm the cache so the vars show non-zero counters, then check the
	// document is valid JSON carrying both expvar and crserve sections.
	// The plain search reaches its search, whose nodes the "search" block
	// counts.
	post(t, srv.URL+"/v1/solve", api.SolveRequest{Spec: testSpec("v")})
	post(t, srv.URL+"/v1/solve", api.SolveRequest{Spec: randomSpec(1, 16), Algorithm: string(exacttest.PlainSearch)})
	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	resp.Body.Close()
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("expvar memstats missing")
	}
	var own struct {
		Cache    repro.CacheStats `json:"cache"`
		Requests map[string]int64 `json:"requests"`
		Search   map[string]int64 `json:"search"`
	}
	if err := json.Unmarshal(vars["crserve"], &own); err != nil {
		t.Fatalf("crserve section: %v", err)
	}
	if own.Cache.Misses < 1 || own.Requests["solve"] < 1 || own.Search["explored"] < 1 {
		t.Fatalf("counters not wired: %+v", own)
	}
}

func TestConcurrencyLimiter(t *testing.T) {
	// A solver seam is not reachable from here, so hold the only slot
	// with a request parked on the in-flight gate: run against a Service
	// with singleflight and a slow first solve. Simpler and fully
	// deterministic: MaxInflight=1 plus a handler-level probe — issue a
	// request from inside another request's window using a pre-acquired
	// slot is racy; instead verify the limiter's mechanics directly.
	cfg := Config{Service: repro.NewService(nil, 8), MaxInflight: 1}
	s := &server{cfg: cfg, slots: make(chan struct{}, cfg.MaxInflight)}

	blocked := make(chan struct{})
	release := make(chan struct{})
	slow := s.limited(func(w http.ResponseWriter, r *http.Request) {
		close(blocked)
		<-release
		w.WriteHeader(http.StatusOK)
	})

	go func() {
		rec := httptest.NewRecorder()
		slow(rec, httptest.NewRequest("POST", "/v1/solve", nil))
	}()
	<-blocked // the single slot is now held

	rec := httptest.NewRecorder()
	s.limited(func(http.ResponseWriter, *http.Request) {
		t.Error("second request ran despite a full limiter")
	})(rec, httptest.NewRequest("POST", "/v1/solve", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != api.CodeOverloaded {
		t.Fatalf("body %s", rec.Body.String())
	}
	close(release)

	// Once the slot frees, requests flow again.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec := httptest.NewRecorder()
		ran := false
		s.limited(func(http.ResponseWriter, *http.Request) { ran = true })(
			rec, httptest.NewRequest("POST", "/v1/solve", nil))
		if ran {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("limiter never released its slot")
		}
		time.Sleep(time.Millisecond)
	}
	if s.rejected.Load() < 1 {
		t.Fatalf("rejected counter %d, want >= 1", s.rejected.Load())
	}
}

func TestBodySizeLimit(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxBodyBytes: 256})
	resp, body := post(t, srv.URL+"/v1/solve", api.SolveRequest{Spec: testSpec("too-big-for-256-bytes")})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d: %s", resp.StatusCode, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != api.CodeInvalidRequest {
		t.Fatalf("oversized body error: %s", body)
	}
	// Within the limit everything still works.
	big, _ := newTestServer(t, Config{MaxBodyBytes: 1 << 20})
	if resp, body := post(t, big.URL+"/v1/solve", api.SolveRequest{Spec: testSpec("fits")}); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-limit body: status %d: %s", resp.StatusCode, body)
	}
}

func TestRequestTimeoutCeiling(t *testing.T) {
	// A 1ns server ceiling cancels every solve: the response must be the
	// structured canceled error with HTTP 504.
	srv, _ := newTestServer(t, Config{Service: repro.NewService(nil, 0), RequestTimeout: time.Nanosecond})
	resp, body := post(t, srv.URL+"/v1/solve", api.SolveRequest{Spec: testSpec("t")})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != api.CodeCanceled {
		t.Fatalf("body %s", body)
	}
	if e.Details["cause"] != "deadline_exceeded" {
		t.Fatalf("details %v", e.Details)
	}
}

func TestBatchItemCount(t *testing.T) {
	// Sanity: a large batch of distinct instances completes and stays in
	// input order (names embedded in fingerprint-distinct profiles).
	srv, _ := newTestServer(t, Config{BatchParallelism: 4})
	var req api.BatchRequest
	const n = 12
	for i := 0; i < n; i++ {
		s := testSpec(fmt.Sprintf("n%d", i))
		s.CRUs[0].HostTime = 3 + float64(i)
		req.Items = append(req.Items, api.SolveRequest{Spec: s})
	}
	_, body := post(t, srv.URL+"/v1/batch", req)
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != n {
		t.Fatalf("%d items, want %d", len(br.Items), n)
	}
	seen := map[string]bool{}
	for i, item := range br.Items {
		if item.Error != nil {
			t.Fatalf("item %d: %+v", i, item.Error)
		}
		if seen[item.Response.Fingerprint] {
			t.Fatalf("item %d repeated a fingerprint", i)
		}
		seen[item.Response.Fingerprint] = true
	}
}

func TestVarsLatencyAndInflight(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	// Drive a few labelled endpoints, including a failing solve — errors
	// must be measured too.
	for i := 0; i < 3; i++ {
		post(t, srv.URL+"/v1/solve", api.SolveRequest{Spec: testSpec("lat")})
	}
	post(t, srv.URL+"/v1/solve", api.SolveRequest{}) // invalid: still timed
	post(t, srv.URL+"/v1/batch", api.BatchRequest{Items: []api.SolveRequest{{Spec: testSpec("lat-b")}}})

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Crserve struct {
			Latency  map[string]map[string]float64 `json:"latency"`
			Inflight int64                         `json:"inflight"`
		} `json:"crserve"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	solve := vars.Crserve.Latency["solve"]
	if solve == nil {
		t.Fatalf("no solve latency block: %+v", vars.Crserve.Latency)
	}
	if got := solve["count"]; got != 4 {
		t.Errorf("solve count = %v, want 4 (3 ok + 1 invalid)", got)
	}
	if solve["p95_us"] <= 0 || solve["max_us"] < solve["p50_us"] {
		t.Errorf("implausible solve quantiles: %+v", solve)
	}
	if batch := vars.Crserve.Latency["batch"]; batch == nil || batch["count"] != 1 {
		t.Errorf("batch latency block: %+v", batch)
	}
	if _, ok := vars.Crserve.Latency["session_open"]; ok {
		t.Error("unused endpoint must be omitted from the latency block")
	}
	// The scrape itself holds no labelled endpoint, so nothing is in flight.
	if vars.Crserve.Inflight != 0 {
		t.Errorf("inflight = %d, want 0", vars.Crserve.Inflight)
	}
}

// TestSearchCountersCountOnlyMisses checks that the "search" block of
// /debug/vars counts only searches that ran: a cache hit leaves explored
// unchanged and counts its stored outcome's nodes as replayed. An answer
// the Pareto DP proved counts its frontier points as dp_points, never as
// explored or replayed nodes.
func TestSearchCountersCountOnlyMisses(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	search := func() map[string]int64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var vars struct {
			Crserve struct {
				Search map[string]int64 `json:"search"`
			} `json:"crserve"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
			t.Fatal(err)
		}
		return vars.Crserve.Search
	}
	solve := func(req api.SolveRequest, want bool) {
		t.Helper()
		resp, body := post(t, srv.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d %s", resp.StatusCode, body)
		}
		var out api.SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached != want {
			t.Fatalf("solve cached = %v, want %v", out.Cached, want)
		}
	}

	ssb := api.SolveRequest{Spec: testSpec("search")}
	solve(ssb, false)
	miss := search()
	if miss["explored"] <= 0 || miss["replayed"] != 0 {
		t.Fatalf("after a miss: %v, want explored > 0 and replayed 0", miss)
	}
	solve(ssb, true)
	hit := search()
	if hit["explored"] != miss["explored"] || hit["pruned"] != miss["pruned"] {
		t.Errorf("a cache hit moved the search counters: %v -> %v", miss, hit)
	}
	if hit["replayed"] != miss["explored"] {
		t.Errorf("replayed = %d after one hit, want the stored outcome's %d nodes", hit["replayed"], miss["explored"])
	}

	bnb := api.SolveRequest{Spec: randomSpec(1, 16), Algorithm: string(repro.BranchBound)}
	solve(bnb, false)
	dp := search()
	if dp["dp_points"] <= 0 || dp["explored"] != hit["explored"] || dp["pruned"] != hit["pruned"] {
		t.Fatalf("after a DP-proven miss: %v -> %v, want dp_points > 0 and no search", hit, dp)
	}
	solve(bnb, true)
	if again := search(); again["dp_points"] != dp["dp_points"] || again["replayed"] != dp["replayed"] {
		t.Errorf("a hit on a DP-proven answer moved the counters: %v -> %v", dp, again)
	}
}

// TestDecodeRejectsTrailingData posts a valid body with something after it
// to every endpoint that decodes a body: anything but whitespace is an
// invalid_request, on the solve fast path and on the encoding/json path.
func TestDecodeRejectsTrailingData(t *testing.T) {
	const self = "http://solo.test"
	cl, err := cluster.New(cluster.Config{Self: self, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Service: repro.NewService(nil, 64), Cluster: cl})
	defer h.Close()
	h.AttachElastic(nil)
	do := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set(api.EpochHeader, "1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	serve := func(path, body string) (int, api.Error) {
		t.Helper()
		rec := do(path, body)
		var e api.Error
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s: error body %s: %v", path, rec.Body, err)
			}
		}
		return rec.Code, e
	}

	spec, err := json.Marshal(testSpec("trailing"))
	if err != nil {
		t.Fatal(err)
	}
	solve := `{"spec":` + string(spec) + `}`
	opened := do("/v1/session", solve)
	var sess api.SessionResponse
	if err := json.Unmarshal(opened.Body.Bytes(), &sess); err != nil || sess.Session.SessionID == "" {
		t.Fatalf("opening a session: %s", opened.Body)
	}

	for _, tc := range []struct{ path, body string }{
		{"/v1/solve", solve},
		{"/v1/solve", `{"Spec":` + string(spec) + `}`}, // case-variant key: encoding/json path
		{"/v1/batch", `{"items":[` + solve + `]}`},
		{"/v1/simulate", solve},
		{"/v1/session", solve},
		{"/v1/session/" + sess.Session.SessionID + "/mutate", `{"mutations":[]}`},
		{"/v1/jobs", solve},
		{"/v1/cluster/members", `{"epoch":1,"members":["` + self + `"]}`},
		{"/v1/migrate/cache", `{"entries":[]}`},
		{"/v1/migrate/sessions", `{"sessions":[]}`},
	} {
		for _, tail := range []string{" garbage", "{}", "\n" + tc.body, "]", "\x00"} {
			code, e := serve(tc.path, tc.body+tail)
			if code != http.StatusBadRequest || e.Code != api.CodeInvalidRequest ||
				!strings.Contains(e.Message, "after top-level value") {
				t.Errorf("%s with %q after the body: status %d, %+v", tc.path, tail, code, e)
			}
		}
		if code, e := serve(tc.path, tc.body+" \t\r\n"); strings.HasPrefix(e.Message, "decoding request body") {
			t.Errorf("%s with trailing whitespace: status %d, %+v", tc.path, code, e)
		}
	}
}

// responseSink is a ResponseWriter reused across requests, so an
// allocation guard counts the handler alone.
type responseSink struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (s *responseSink) Header() http.Header { return s.h }
func (s *responseSink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}
func (s *responseSink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.body.Write(p)
}
func (s *responseSink) reset() {
	clear(s.h)
	s.code = 0
	s.body.Reset()
}

// TestSolveHandlerAllocCeiling is the allocation guard on a warm
// cache-hit POST /v1/solve of a 16-CRU instance through ServeHTTP: body
// and response buffers are pooled and the request decodes on the fast
// path, so what remains is the decoded spec, the built tree, the cache
// hit's remapped outcome and the response maps. The ceilings are the
// go1.24/amd64 measurement (59 allocs, 16,900 B) plus about 10%.
func TestSolveHandlerAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	const runs, maxAllocs, maxBytes = 200, 65, 18450
	h := New(Config{Service: repro.NewService(nil, 64)})
	defer h.Close()
	body, err := json.Marshal(api.SolveRequest{Spec: randomSpec(16, 16)})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", rd)
	req.Body = io.NopCloser(rd)
	w := &responseSink{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || !bytes.Contains(w.body.Bytes(), []byte(`"cached": true`)) {
			t.Fatalf("status %d: %s", w.code, w.body.Bytes())
		}
	}
	rd.Reset(body)
	h.ServeHTTP(w, req) // the cold solve fills the cache
	allocs := testing.AllocsPerRun(runs, serve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm POST /v1/solve: %.0f allocs/op, %d B/op", allocs, perOp)
	if allocs > maxAllocs {
		t.Errorf("warm POST /v1/solve allocates %.0f objects/op, want at most %d", allocs, maxAllocs)
	}
	if perOp > maxBytes {
		t.Errorf("warm POST /v1/solve allocates %d B/op, want at most %d", perOp, maxBytes)
	}
}
