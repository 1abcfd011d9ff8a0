package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/api"
	"repro/internal/cluster"
	"repro/internal/workload"
)

// testFleetOptions is the fast-failover tuning every fleet test uses:
// breakers open on the first failure (a killed node is skipped at once),
// probes are manual unless a test starts them.
func testFleetOptions() FleetOptions {
	return FleetOptions{
		Cluster: cluster.Config{
			VirtualNodes:     64,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Hour,
			HedgeDelay:       20 * time.Millisecond,
			ProbeInterval:    25 * time.Millisecond,
		},
	}
}

func startTestFleet(t *testing.T, n int, opts FleetOptions) *Fleet {
	t.Helper()
	f, err := StartFleet(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// randomSpec returns a distinct solvable instance per seed.
func randomSpec(seed int64, crus int) *repro.Spec {
	rng := rand.New(rand.NewSource(seed))
	t := workload.Random(rng, workload.DefaultRandomSpec(crus, 3))
	return repro.ToSpec(t, fmt.Sprintf("t%d", seed))
}

func solveVia(t *testing.T, url string, req *api.SolveRequest) (*api.SolveResponse, *http.Response) {
	t.Helper()
	resp, body := post(t, url+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve via %s: %d %s", url, resp.StatusCode, body)
	}
	var out api.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding solve response: %v", err)
	}
	return &out, resp
}

// ownerIndex returns which fleet node owns the spec's fingerprint.
func ownerIndex(t *testing.T, f *Fleet, spec *repro.Spec) int {
	t.Helper()
	tree, err := repro.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Nodes[0].Cluster.Owner(repro.Fingerprint(tree))
	for i, n := range f.Nodes {
		if n.URL == owner {
			return i
		}
	}
	t.Fatalf("owner %q not in fleet", owner)
	return -1
}

// specOwnedBy fabricates an instance whose ring owner is fleet node want.
func specOwnedBy(t *testing.T, f *Fleet, want int, crus int) *repro.Spec {
	t.Helper()
	for seed := int64(1); seed < 5000; seed++ {
		spec := randomSpec(seed, crus)
		if ownerIndex(t, f, spec) == want {
			return spec
		}
	}
	t.Fatalf("no spec owned by node %d", want)
	return nil
}

// TestClusterRoutingAffinity is the acceptance criterion: repeat solves
// of one fingerprint land on its owner whichever node the client hits,
// so ≥90% of repeats are cache hits somewhere in the fleet (here: all of
// them), and each instance cold-solves exactly once fleet-wide.
func TestClusterRoutingAffinity(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())

	const distinct, repeats = 24, 10
	specs := make([]*repro.Spec, distinct)
	for i := range specs {
		specs[i] = randomSpec(int64(100+i), 12)
	}
	for rep := 0; rep < repeats; rep++ {
		for i, spec := range specs {
			out, resp := solveVia(t, f.Nodes[(rep+i)%3].URL, &api.SolveRequest{Spec: spec})
			if out.Delay <= 0 {
				t.Fatalf("spec %d: non-positive delay %v", i, out.Delay)
			}
			owner := f.Nodes[ownerIndex(t, f, spec)].URL
			if got := resp.Header.Get(api.ServedByHeader); got != owner {
				t.Fatalf("spec %d served by %q, owner is %q", i, got, owner)
			}
		}
	}

	var hits, misses int64
	for _, n := range f.Nodes {
		st := n.Service.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	if misses != distinct {
		t.Errorf("%d cold solves for %d distinct instances — affinity leak", misses, distinct)
	}
	total := int64(distinct * repeats)
	repeatsServed := total - distinct
	if hits < (repeatsServed*9)/10 {
		t.Fatalf("fleet hit rate %d/%d below 90%% of repeats", hits, repeatsServed)
	}
}

// TestClusterEquivalence is the property check: for every registered
// algorithm, solving through the fleet (via a non-owner node) returns
// bit-identical results to a plain single-node Solver.
func TestClusterEquivalence(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	solver := repro.NewSolver()
	ctx := context.Background()

	for i, alg := range repro.Algorithms() {
		spec := randomSpec(int64(7000+i), 10)
		tree, err := repro.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solver.Solve(ctx, tree, repro.WithAlgorithm(alg), repro.WithSeed(7))
		if err != nil {
			t.Fatalf("%s: reference solve: %v", alg, err)
		}
		wantWire := api.NewSolveResponse(tree, want, repro.CacheMiss)

		req := &api.SolveRequest{Spec: spec, Algorithm: string(alg), Seed: 7}
		for n := 0; n < 3; n++ {
			got, _ := solveVia(t, f.Nodes[n].URL, req)
			if got.Delay != wantWire.Delay || got.Exact != wantWire.Exact || got.Algorithm != wantWire.Algorithm {
				t.Fatalf("%s via node %d: got delay=%v exact=%v, want delay=%v exact=%v",
					alg, n, got.Delay, got.Exact, wantWire.Delay, wantWire.Exact)
			}
			if !reflect.DeepEqual(got.Assignment, wantWire.Assignment) {
				t.Fatalf("%s via node %d: assignment drift:\n got %v\nwant %v", alg, n, got.Assignment, wantWire.Assignment)
			}
		}
	}
}

func TestClusterEmptyBatch(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	resp, body := post(t, f.Nodes[0].URL+"/v1/batch", &api.BatchRequest{Items: []api.SolveRequest{}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch: %d %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 0 {
		t.Fatalf("empty batch returned %d items", len(br.Items))
	}
}

// TestClusterBatchScatterGather: a mixed batch splits by owner, merges
// in input order, and isolates per-item errors exactly as a single node
// would.
func TestClusterBatchScatterGather(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	items := []api.SolveRequest{
		{Spec: specOwnedBy(t, f, 0, 12)},
		{Spec: specOwnedBy(t, f, 1, 12)},
		{Spec: nil}, // invalid: missing spec
		{Spec: specOwnedBy(t, f, 2, 12)},
		{Spec: specOwnedBy(t, f, 1, 14), Algorithm: "no-such-algorithm"},
	}
	resp, body := post(t, f.Nodes[0].URL+"/v1/batch", &api.BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(items) {
		t.Fatalf("%d items back for %d sent", len(br.Items), len(items))
	}
	for _, i := range []int{0, 1, 3} {
		if br.Items[i].Response == nil {
			t.Fatalf("item %d: no response: %+v", i, br.Items[i].Error)
		}
	}
	if br.Items[2].Error == nil || br.Items[2].Error.Code != api.CodeInvalidRequest {
		t.Fatalf("item 2: want invalid_request, got %+v", br.Items[2])
	}
	if br.Items[4].Error == nil || br.Items[4].Error.Code != api.CodeUnknownAlgorithm {
		t.Fatalf("item 4: want unknown_algorithm, got %+v", br.Items[4])
	}
	// The scattered result must equal the same batch served by one node.
	single, svc := newTestServer(t, Config{})
	_ = svc
	_, sbody := post(t, single.URL+"/v1/batch", &api.BatchRequest{Items: items})
	var sr api.BatchResponse
	if err := json.Unmarshal(sbody, &sr); err != nil {
		t.Fatal(err)
	}
	for i := range sr.Items {
		a, b := br.Items[i].Response, sr.Items[i].Response
		if (a == nil) != (b == nil) {
			t.Fatalf("item %d: presence mismatch", i)
		}
		if a != nil && (a.Delay != b.Delay || !reflect.DeepEqual(a.Assignment, b.Assignment)) {
			t.Fatalf("item %d: clustered batch diverges from single-node: %v vs %v", i, a.Delay, b.Delay)
		}
	}
}

// TestClusterBatchDedup: duplicates of one instance cross the wire and
// solve once per owner; every duplicate index still gets a result.
func TestClusterBatchDedup(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	spec := specOwnedBy(t, f, 1, 12)
	items := make([]api.SolveRequest, 6)
	for i := range items {
		items[i] = api.SolveRequest{Spec: spec}
	}
	resp, body := post(t, f.Nodes[0].URL+"/v1/batch", &api.BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 6 {
		t.Fatalf("%d items back", len(br.Items))
	}
	for i, it := range br.Items {
		if it.Response == nil {
			t.Fatalf("item %d: %+v", i, it.Error)
		}
		if it.Response.Delay != br.Items[0].Response.Delay {
			t.Fatalf("item %d: duplicate delays diverge", i)
		}
	}
	st := f.Nodes[1].Service.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Shared != 0 {
		t.Fatalf("owner solved the duplicates %d/%d/%d times (miss/hit/shared), want exactly one miss", st.Misses, st.Hits, st.Shared)
	}
	if st0 := f.Nodes[0].Service.Stats(); st0.Misses != 0 {
		t.Fatalf("gateway node solved %d items itself", st0.Misses)
	}
}

// renamedSpec deep-copies spec with every node and satellite name
// prefixed: a structurally identical instance (same fingerprint, same
// ring owner) under different names.
func renamedSpec(spec *repro.Spec, prefix string) *repro.Spec {
	out := &repro.Spec{
		Name:       prefix + spec.Name,
		Satellites: make([]string, len(spec.Satellites)),
		CRUs:       append([]repro.SpecCRU(nil), spec.CRUs...),
		Sensors:    append([]repro.SpecSensor(nil), spec.Sensors...),
	}
	ren := func(s string) string {
		if s == "" {
			return ""
		}
		return prefix + s
	}
	for i, s := range spec.Satellites {
		out.Satellites[i] = ren(s)
	}
	for i := range out.CRUs {
		out.CRUs[i].Name = ren(out.CRUs[i].Name)
		out.CRUs[i].Parent = ren(out.CRUs[i].Parent)
	}
	for i := range out.Sensors {
		out.Sensors[i].Name = ren(out.Sensors[i].Name)
		out.Sensors[i].Parent = ren(out.Sensors[i].Parent)
		out.Sensors[i].Satellite = ren(out.Sensors[i].Satellite)
	}
	return out
}

// TestClusterBatchNameVariants: two batch items that are one instance
// under different names share a fingerprint (and owner) but must NOT
// share a wire response — each answer carries its own item's names.
func TestClusterBatchNameVariants(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	specA := specOwnedBy(t, f, 1, 12)
	specB := renamedSpec(specA, "v2-")
	if ownerIndex(t, f, specA) != ownerIndex(t, f, specB) {
		t.Fatal("renaming changed the fingerprint — canonicalisation broke")
	}
	resp, body := post(t, f.Nodes[0].URL+"/v1/batch",
		&api.BatchRequest{Items: []api.SolveRequest{{Spec: specA}, {Spec: specB}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	a, b := br.Items[0].Response, br.Items[1].Response
	if a == nil || b == nil {
		t.Fatalf("missing responses: %s", body)
	}
	if a.Delay != b.Delay {
		t.Fatalf("structurally identical items diverged: %v vs %v", a.Delay, b.Delay)
	}
	for name := range a.Assignment {
		if strings.HasPrefix(name, "v2-") {
			t.Fatalf("item 0's assignment carries item 1's names: %v", a.Assignment)
		}
	}
	for name := range b.Assignment {
		if !strings.HasPrefix(name, "v2-") {
			t.Fatalf("item 1's assignment carries item 0's names: %v", b.Assignment)
		}
	}
}

// TestClusterAllOwnersDown: with every peer dead the surviving node
// still answers everything, locally, with correct results.
func TestClusterAllOwnersDown(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	specs := []*repro.Spec{
		specOwnedBy(t, f, 1, 12),
		specOwnedBy(t, f, 2, 12),
	}
	// Reference answers while the fleet is healthy.
	want := make([]float64, len(specs))
	for i, spec := range specs {
		out, _ := solveVia(t, f.Nodes[0].URL, &api.SolveRequest{Spec: spec})
		want[i] = out.Delay
	}
	f.Nodes[1].Kill()
	f.Nodes[2].Kill()
	for rep := 0; rep < 4; rep++ {
		for i, spec := range specs {
			out, resp := solveVia(t, f.Nodes[0].URL, &api.SolveRequest{Spec: spec})
			if out.Delay != want[i] {
				t.Fatalf("rep %d spec %d: delay %v after failover, want %v", rep, i, out.Delay, want[i])
			}
			if rep > 0 {
				// After the first failed forward the breaker is open and
				// the survivor serves straight from its own stack.
				if got := resp.Header.Get(api.ServedByHeader); got != f.Nodes[0].URL {
					t.Fatalf("rep %d: served by %q, want local %q", rep, got, f.Nodes[0].URL)
				}
			}
		}
	}
	st := f.Nodes[0].Cluster.Stats()
	if st.LocalFallbacks == 0 {
		t.Fatal("no local fallbacks counted with every peer dead")
	}
	// The batch path degrades the same way.
	items := []api.SolveRequest{{Spec: specs[0]}, {Spec: specs[1]}}
	resp, body := post(t, f.Nodes[0].URL+"/v1/batch", &api.BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with dead owners: %d %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	for i, it := range br.Items {
		if it.Response == nil || it.Response.Delay != want[i] {
			t.Fatalf("batch item %d after failover: %+v", i, it)
		}
	}
}

// TestClusterMidFlightNodeDeath: a node dies while a request stream is
// running; capacity degrades (forwards become local fallbacks) but every
// response stays correct.
func TestClusterMidFlightNodeDeath(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	spec := specOwnedBy(t, f, 1, 12)
	out, _ := solveVia(t, f.Nodes[0].URL, &api.SolveRequest{Spec: spec})
	want := out.Delay
	for i := 0; i < 20; i++ {
		if i == 7 {
			f.Nodes[1].Kill()
		}
		got, _ := solveVia(t, f.Nodes[0].URL, &api.SolveRequest{Spec: spec})
		if got.Delay != want {
			t.Fatalf("request %d: delay %v, want %v", i, got.Delay, want)
		}
	}
}

// TestClusterSessionPinning: sessions open on the initial tree's owner,
// carry the owner's tag in their ID, and are reachable through any node
// (GET redirects, mutating calls proxy).
func TestClusterSessionPinning(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	spec := specOwnedBy(t, f, 1, 12)

	resp, body := post(t, f.Nodes[0].URL+"/v1/session", &api.OpenSessionRequest{SolveRequest: api.SolveRequest{Spec: spec}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: %d %s", resp.StatusCode, body)
	}
	var opened api.SessionResponse
	if err := json.Unmarshal(body, &opened); err != nil {
		t.Fatal(err)
	}
	id := opened.Session.SessionID
	ownerTag := f.Nodes[1].Cluster.SelfTag()
	if !strings.HasPrefix(id, ownerTag+"-") {
		t.Fatalf("session id %q not pinned to owner tag %q", id, ownerTag)
	}

	// GET via a non-owner answers 307 to the owner…
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	get, err := noRedirect.Get(f.Nodes[2].URL + "/v1/session/" + id)
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
	// …and a default client (which follows 307) lands on the session.
	follow, err := http.Get(f.Nodes[2].URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var state api.SessionResponse
	if err := json.NewDecoder(follow.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	follow.Body.Close()
	if state.Session.SessionID != id {
		t.Fatalf("followed redirect got session %q", state.Session.SessionID)
	}

	// Mutate through a non-owner proxies to the owner and resolves.
	ht := 5.0
	mut := &api.MutateRequest{
		Mutations: []api.Mutation{{Op: api.OpWeightUpdate, Node: spec.CRUs[0].Name, HostTime: &ht}},
		Resolve:   true,
	}
	resp, body = post(t, f.Nodes[2].URL+"/v1/session/"+id+"/mutate", mut)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied mutate: %d %s", resp.StatusCode, body)
	}
	var mutated api.SessionResponse
	if err := json.Unmarshal(body, &mutated); err != nil {
		t.Fatal(err)
	}
	if mutated.Session.Revision != 1 || mutated.Response == nil {
		t.Fatalf("proxied mutate state: %+v", mutated.Session)
	}
	if got := resp.Header.Get(api.ServedByHeader); got != f.Nodes[1].URL {
		t.Fatalf("proxied mutate served by %q", got)
	}
	if st := f.Nodes[2].Cluster.Stats(); st.ProxiedSessions == 0 || st.Redirects == 0 {
		t.Fatalf("session routing counters not wired: %+v", st)
	}

	// Owner gone: pinned calls fail with unavailable, not a wrong answer.
	f.Nodes[1].Kill()
	resp, body = post(t, f.Nodes[2].URL+"/v1/session/"+id+"/resolve", struct{}{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("resolve with dead owner: %d %s", resp.StatusCode, body)
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code != api.CodeUnavailable {
		t.Fatalf("error body %s", body)
	}
}

// TestClusterHopGuard: a request already marked as forwarded is served
// locally even by a node that does not own it.
func TestClusterHopGuard(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	spec := specOwnedBy(t, f, 1, 12)
	data, err := json.Marshal(&api.SolveRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, f.Nodes[0].URL+"/v1/solve", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ForwardedHeader, "http://elsewhere")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hop-guarded solve: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.ServedByHeader); got != f.Nodes[0].URL {
		t.Fatalf("hop-guarded request served by %q, want the receiving node", got)
	}
	if st := f.Nodes[0].Cluster.Stats(); st.Forwards != 0 {
		t.Fatalf("hop-guarded request was forwarded again: %+v", st)
	}
}

// TestClusterDraining: a draining node flips /healthz before anything
// closes, peers' probes notice, and new work stops routing to it while
// it still answers what arrives.
func TestClusterDraining(t *testing.T) {
	opts := testFleetOptions()
	opts.StartProbes = true
	f := startTestFleet(t, 3, opts)
	spec := specOwnedBy(t, f, 1, 12)
	solveVia(t, f.Nodes[0].URL, &api.SolveRequest{Spec: spec}) // warm: forwarded to node 1

	f.Nodes[1].Handler.Drain()
	hz, err := http.Get(f.Nodes[1].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || !strings.Contains(buf.String(), "draining") {
		t.Fatalf("draining healthz: %d %q", hz.StatusCode, buf.String())
	}

	// Wait for node 0's probes to see the state change: the draining
	// owner must drop out of the plan (the next ring replica — or nobody
	// — takes over).
	fp := repro.Fingerprint(mustTree(t, spec))
	deadline := time.Now().Add(2 * time.Second)
	for {
		plan := f.Nodes[0].Cluster.Plan(fp)
		if len(plan) == 0 || plan[0] != f.Nodes[1].URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 0 kept planning routes to the draining owner")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New work for the draining node's keys now routes elsewhere…
	out, resp := solveVia(t, f.Nodes[0].URL, &api.SolveRequest{Spec: spec})
	if out.Delay <= 0 {
		t.Fatal("bad delay after drain")
	}
	if got := resp.Header.Get(api.ServedByHeader); got == f.Nodes[1].URL {
		t.Fatalf("post-drain solve still served by the draining node %q", got)
	}
	// …while the draining node itself still answers (it has not closed).
	direct, _ := solveVia(t, f.Nodes[1].URL, &api.SolveRequest{Spec: spec})
	if direct.Delay != out.Delay {
		t.Fatalf("draining node answered %v, fleet answered %v", direct.Delay, out.Delay)
	}
}

func mustTree(t *testing.T, spec *repro.Spec) *repro.Tree {
	t.Helper()
	tree, err := repro.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestClusterIntrospection: /v1/cluster reports the fleet on a clustered
// node and enabled=false on a plain one.
func TestClusterIntrospection(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	resp, err := http.Get(f.Nodes[0].URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var doc api.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !doc.Enabled || doc.Self != f.Nodes[0].URL || len(doc.Nodes) != 3 {
		t.Fatalf("cluster doc: %+v", doc)
	}
	if !doc.Nodes[0].Self || doc.Nodes[0].State != "ready" || doc.Nodes[0].Tag == "" {
		t.Fatalf("self node entry: %+v", doc.Nodes[0])
	}

	single, _ := newTestServer(t, Config{})
	resp, err = http.Get(single.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var plain api.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if plain.Enabled || plain.APIVersion != api.Version {
		t.Fatalf("single-node cluster doc: %+v", plain)
	}
}

// TestClusterVars: /debug/vars gains the cluster section.
func TestClusterVars(t *testing.T) {
	f := startTestFleet(t, 3, testFleetOptions())
	solveVia(t, f.Nodes[0].URL, &api.SolveRequest{Spec: specOwnedBy(t, f, 1, 12)})
	resp, err := http.Get(f.Nodes[0].URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var own struct {
		Cluster struct {
			Self  string           `json:"self"`
			Stats map[string]int64 `json:"stats"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(vars["crserve"], &own); err != nil {
		t.Fatal(err)
	}
	if own.Cluster.Self != f.Nodes[0].URL || own.Cluster.Stats["forwards"] != 1 {
		t.Fatalf("cluster vars: %+v", own.Cluster)
	}
}

// lingeringTransport stands in for the connection to a slow peer: a
// request to host slow is answered only once its context ends, and its
// body is read after that, as by a transport still sending it. The
// RoundTripper contract allows this: the body may be read until it is
// closed, even after RoundTrip returns. Requests to other hosts go to
// next. Each late read must see one of the bodies in sent. The test adds
// one to reads for each request it routes to slow first; each late read
// marks it done.
type lingeringTransport struct {
	t     *testing.T
	slow  string
	next  http.RoundTripper
	sent  map[string]bool // read-only once requests start
	reads sync.WaitGroup
}

func (lt *lingeringTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host != lt.slow {
		return lt.next.RoundTrip(req)
	}
	<-req.Context().Done()
	go func() {
		defer lt.reads.Done()
		defer req.Body.Close()
		time.Sleep(time.Millisecond) // let the handler return and its buffers be reused
		got, err := io.ReadAll(req.Body)
		if err != nil || !lt.sent[string(got)] {
			lt.t.Errorf("a losing forward read a body no client sent (err %v): %.80q", err, got)
		}
	}()
	return nil, req.Context().Err()
}

// TestClusterForwardHedgedBodyReuse races hedged forwards against local
// solves on one node. Every forward's primary is a slow peer that reads
// the body after the hedge has won and the handler has returned; local
// solves meanwhile decode into pooled buffers. A forwarded body must
// never go back to the pool: under -race a reuse is a reported race, and
// without it the slow peer reads another request's bytes.
func TestClusterForwardHedgedBodyReuse(t *testing.T) {
	fastHandler := New(Config{Service: repro.NewService(nil, 256)})
	fast := httptest.NewServer(fastHandler)
	defer fastHandler.Close()
	defer fast.Close()

	const self, slow = "http://entry.test", "slow.test"
	next := &http.Transport{}
	defer next.CloseIdleConnections()
	lt := &lingeringTransport{t: t, slow: slow, next: next, sent: map[string]bool{}}
	cl, err := cluster.New(cluster.Config{
		Self: self, Peers: []string{"http://" + slow, fast.URL},
		HedgeDelay: time.Millisecond, Client: &http.Client{Transport: lt},
	})
	if err != nil {
		t.Fatal(err)
	}
	entry := New(Config{Service: repro.NewService(nil, 256), Cluster: cl})
	defer entry.Close()

	// Half the bodies are owned by the slow peer with the fast one as its
	// hedge; the other half are served by the entry node itself.
	var forwardedBodies, localBodies [][]byte
	for seed := int64(1); len(forwardedBodies) < 8 || len(localBodies) < 8; seed++ {
		spec := randomSpec(seed, 12)
		plan := cl.Plan(repro.Fingerprint(mustTree(t, spec)))
		body, err := json.Marshal(api.SolveRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(plan) == 2 && plan[0] == "http://"+slow && len(forwardedBodies) < 8:
			forwardedBodies = append(forwardedBodies, body)
		case len(plan) == 0 && len(localBodies) < 8:
			localBodies = append(localBodies, body)
		default:
			continue
		}
		lt.sent[string(body)] = true
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				bodies := localBodies
				if (g+i)%2 == 0 {
					bodies = forwardedBodies
					lt.reads.Add(1)
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(bodies[(g+i)%len(bodies)]))
				rec := httptest.NewRecorder()
				entry.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("solve: status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	lt.reads.Wait()
	if st := cl.Stats(); st.Hedges == 0 || st.Forwards == 0 {
		t.Fatalf("cluster stats %+v: want hedged forwards", st)
	}
}
