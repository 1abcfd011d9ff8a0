package httpserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/api"
)

// waitForEpoch polls every fleet node until all report at least epoch,
// failing the test after the deadline — view changes propagate through
// synchronous pushes plus an async broadcast, so tests must not assume
// instant convergence.
func waitForEpoch(t *testing.T, f *Fleet, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, n := range f.Nodes {
			if n.Cluster.Epoch() < epoch {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			for i, n := range f.Nodes {
				t.Logf("node %d: epoch %d", i, n.Cluster.Epoch())
			}
			t.Fatalf("fleet never converged on epoch %d", epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// migratePush posts a raw migration payload with an explicit epoch
// header, returning the HTTP status.
func migratePush(t *testing.T, url, path string, epoch uint64, payload any) int {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.EpochHeader, strconv.FormatUint(epoch, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestElasticJoinMidLoadWarmReuse is the tentpole acceptance test: a
// fourth node joins a warmed, actively loaded 3-node fleet; the ranges
// it takes over arrive warm (≥90% of moved-range re-solves answer from
// migrated state), the load sees zero errors throughout, a stale-epoch
// push is rejected and counted, and killing the joined node afterwards
// degrades capacity without surfacing a single client error.
func TestElasticJoinMidLoadWarmReuse(t *testing.T) {
	fleet := startTestFleet(t, 3, testFleetOptions())

	const instances = 40
	specs := make([]*repro.Spec, instances)
	for i := range specs {
		specs[i] = randomSpec(int64(1000+i), 10)
	}
	// Warm every instance's owner through node 0.
	for _, spec := range specs {
		solveVia(t, fleet.Nodes[0].URL, &api.SolveRequest{Spec: spec})
	}

	// Continuous client load across the original nodes while the fleet
	// grows: any non-200 (or transport error) is a failure of the
	// "serving never stops" contract.
	var (
		loadErrs atomic.Int64
		loadOps  atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	urls := fleet.URLs()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(&api.SolveRequest{Spec: specs[i%len(specs)]})
				resp, err := http.Post(urls[i%len(urls)]+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					loadErrs.Add(1)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					loadErrs.Add(1)
				}
				loadOps.Add(1)
			}
		}(w)
	}

	joined, err := fleet.Spawn()
	if err != nil {
		t.Fatalf("mid-load join: %v", err)
	}
	waitForEpoch(t, fleet, 2)
	time.Sleep(50 * time.Millisecond) // a little traffic against the new ring
	close(stop)
	wg.Wait()

	if n := loadErrs.Load(); n != 0 {
		t.Errorf("%d client errors during the join (of %d requests)", n, loadOps.Load())
	}

	// The new node's ranges: instances the post-join ring assigns to it.
	var moved []*repro.Spec
	for _, spec := range specs {
		tree, err := repro.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fleet.Nodes[0].Cluster.Owner(repro.Fingerprint(tree)) == joined.URL {
			moved = append(moved, spec)
		}
	}
	if len(moved) == 0 {
		t.Fatal("no instance moved to the joined node; cannot assert warm handoff")
	}

	// Moved-range re-solves through node 0 now route to the joined node
	// and must answer from the migrated warm state, not cold solves.
	missesBefore := joined.Service.Stats().Misses
	warm := 0
	for _, spec := range moved {
		resp, _ := solveVia(t, fleet.Nodes[0].URL, &api.SolveRequest{Spec: spec})
		if resp.Cached {
			warm++
		}
	}
	if frac := float64(warm) / float64(len(moved)); frac < 0.9 {
		t.Errorf("moved-range warm re-solves: %d/%d (%.0f%%), want >= 90%%", warm, len(moved), 100*frac)
	}
	if d := joined.Service.Stats().Misses - missesBefore; d > int64(len(moved))/10 {
		t.Errorf("joined node cold-solved %d of %d moved instances", d, len(moved))
	}

	// Elastic counters: someone migrated and pushed, the joiner adopted.
	var pushed, migrations int64
	for _, n := range fleet.Nodes[:3] {
		c := n.Elastic.Counters()
		pushed += c.EntriesPushed
		migrations += c.Migrations
	}
	if migrations == 0 || pushed == 0 {
		t.Errorf("incumbents report %d migrations, %d entries pushed; want both > 0", migrations, pushed)
	}
	if got := joined.Elastic.Counters().EntriesAdopted; got == 0 {
		t.Error("joined node adopted no entries")
	}

	// A push stamped with the superseded epoch is rejected and counted.
	staleBefore := joined.Elastic.Counters().StaleEpochRejects
	status := migratePush(t, joined.URL, "/v1/migrate/cache", 1, &api.MigrateResultsRequest{})
	if status != http.StatusConflict {
		t.Errorf("stale-epoch push: status %d, want %d", status, http.StatusConflict)
	}
	if got := joined.Elastic.Counters().StaleEpochRejects; got != staleBefore+1 {
		t.Errorf("StaleEpochRejects = %d, want %d", got, staleBefore+1)
	}
	// The current epoch passes the guard (empty payload: nothing adopted).
	if status := migratePush(t, joined.URL, "/v1/migrate/cache", 2, &api.MigrateResultsRequest{}); status != http.StatusOK {
		t.Errorf("current-epoch push: status %d, want 200", status)
	}

	// Kill the joined node: its ranges lose their warm state, the fleet
	// loses capacity — but every request keeps answering (forwards fail
	// onto the breaker, owners fall back to solving locally).
	joined.Kill()
	for _, spec := range specs {
		solveVia(t, fleet.Nodes[0].URL, &api.SolveRequest{Spec: spec})
	}
}

// holdsSession reports whether node n serves session id from its own
// table (not through a relocation tombstone).
func holdsSession(n *FleetNode, id string) bool {
	s := n.Handler.server
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	_, ok := s.sessions[id]
	return ok
}

// sessionDrift is the weight update TestElasticSessionMigrationParity
// applies: the last CRU's host time scaled by 1.5.
func sessionDrift(spec *repro.Spec) (node string, hostTime float64) {
	last := spec.CRUs[len(spec.CRUs)-1]
	return last.Name, last.HostTime * 1.5
}

// driftedSpecOwnedBy returns a spec owned by node want whose drifted
// revision (sessionDrift) is owned by node drifted, both in the current
// ring.
func driftedSpecOwnedBy(t *testing.T, f *Fleet, want, drifted int) *repro.Spec {
	t.Helper()
	for seed := int64(1); seed < 5000; seed++ {
		spec := randomSpec(seed, 10)
		if ownerIndex(t, f, spec) != want {
			continue
		}
		moved := *spec
		moved.CRUs = append([]repro.SpecCRU(nil), spec.CRUs...)
		_, moved.CRUs[len(moved.CRUs)-1].HostTime = sessionDrift(spec)
		if ownerIndex(t, f, &moved) == drifted {
			return spec
		}
	}
	t.Fatalf("no spec owned by node %d with its drift owned by node %d", want, drifted)
	return nil
}

// TestElasticSessionMigrationParity walks a session across a membership
// change: opened (and warmed) on a node that then leaves the fleet, it
// moves to the survivor and keeps resolving under the same ID with its
// revision history intact — through the new owner directly, and through
// the departed node's relocation tombstone — and produces exactly the
// answers the original owner gave. Sessions are pinned by ID to the node
// that opened them, so the session must move whichever node owned its
// mutated fingerprint before the leave: the leaver (ownership moves) or
// the survivor (ownership unchanged, which a fingerprint-moved filter
// would skip).
func TestElasticSessionMigrationParity(t *testing.T) {
	for _, tc := range []struct {
		name         string
		driftOwnedBy int
	}{
		{"drift-owned-by-leaver", 1},
		{"drift-owned-by-survivor", 0},
	} {
		t.Run(tc.name, func(t *testing.T) { testSessionMigrationParity(t, tc.driftOwnedBy) })
	}
}

func testSessionMigrationParity(t *testing.T, driftOwnedBy int) {
	fleet := startTestFleet(t, 2, testFleetOptions())

	spec := driftedSpecOwnedBy(t, fleet, 1, driftOwnedBy)
	resp, body := post(t, fleet.Nodes[0].URL+"/v1/session", api.OpenSessionRequest{
		SolveRequest: api.SolveRequest{Spec: spec},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: %d %s", resp.StatusCode, body)
	}
	var opened api.SessionResponse
	if err := json.Unmarshal(body, &opened); err != nil {
		t.Fatal(err)
	}
	id := opened.Session.SessionID

	if !holdsSession(fleet.Nodes[1], id) {
		t.Fatalf("session %s was not opened on its fingerprint's owner", id)
	}

	// Mutate + resolve on the owner: revision 1, a warm outcome to carry.
	node, drift := sessionDrift(spec)
	resp, body = post(t, fleet.Nodes[0].URL+"/v1/session/"+id+"/mutate", api.MutateRequest{
		Mutations: []api.Mutation{{Op: api.OpWeightUpdate, Node: node, HostTime: &drift}},
		Resolve:   true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	var mutated api.SessionResponse
	if err := json.Unmarshal(body, &mutated); err != nil {
		t.Fatal(err)
	}
	if mutated.Session.Revision != 1 || mutated.Response == nil {
		t.Fatalf("mutate response: %+v", mutated)
	}
	want := mutated.Response.Delay
	wantFP := mutated.Session.Fingerprint
	if got := fleet.Nodes[0].Cluster.Owner(wantFP); got != fleet.Nodes[driftOwnedBy].URL {
		t.Fatalf("mutated fingerprint owned by %s, want node %d", got, driftOwnedBy)
	}

	// The owner leaves; its sessions are pushed to the survivors before
	// its routing flips.
	if err := fleet.Leave(1); err != nil {
		t.Fatalf("leave: %v", err)
	}
	waitForEpoch(t, fleet, 2)
	if !holdsSession(fleet.Nodes[0], id) {
		t.Fatal("the surviving node does not hold the session after the leave")
	}
	if holdsSession(fleet.Nodes[1], id) {
		t.Error("the leaver still holds the session after pushing it")
	}

	check := func(via string, label string) {
		t.Helper()
		resp, body := post(t, via+"/v1/session/"+id+"/resolve", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s resolve: %d %s", label, resp.StatusCode, body)
		}
		var got api.SessionResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Session.Revision != 1 || got.Session.Fingerprint != wantFP {
			t.Errorf("%s: session state diverged after migration: %+v", label, got.Session)
		}
		if got.Response == nil || got.Response.Delay != want {
			t.Errorf("%s: delay = %+v, want %g", label, got.Response, want)
		}
	}
	check(fleet.Nodes[0].URL, "adopter")   // served locally (adopted)
	check(fleet.Nodes[1].URL, "tombstone") // draining old owner proxies

	// The migrated session still mutates: its lifecycle survived the move.
	revert := spec.CRUs[len(spec.CRUs)-1].HostTime
	resp, body = post(t, fleet.Nodes[0].URL+"/v1/session/"+id+"/mutate", api.MutateRequest{
		Mutations: []api.Mutation{{Op: api.OpWeightUpdate, Node: node, HostTime: &revert}},
		Resolve:   true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-migration mutate: %d %s", resp.StatusCode, body)
	}
	var after api.SessionResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Session.Revision != 2 {
		t.Errorf("post-migration revision = %d, want 2", after.Session.Revision)
	}
	if after.Session.Fingerprint != opened.Session.Fingerprint {
		t.Errorf("reverting the drift should restore the original fingerprint")
	}

	if got := fleet.Nodes[0].Elastic.Counters(); got.EntriesAdopted == 0 {
		t.Error("adopter counters record no adopted entries")
	}
	if got := fleet.Nodes[1].Elastic.Counters(); got.Leaves == 0 {
		t.Error("leaver counters record no leave")
	}
}

// TestElasticClusterDocEpoch checks the introspection satellites: GET
// /v1/cluster reports the view epoch and per-node state ages, and
// /debug/vars exposes the crserve.elastic.* counter block.
func TestElasticClusterDocEpoch(t *testing.T) {
	fleet := startTestFleet(t, 2, testFleetOptions())
	if _, err := fleet.Spawn(); err != nil {
		t.Fatal(err)
	}
	waitForEpoch(t, fleet, 2)

	res, err := http.Get(fleet.Nodes[0].URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var doc api.ClusterResponse
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if doc.Epoch != 2 {
		t.Errorf("cluster doc epoch = %d, want 2", doc.Epoch)
	}
	if len(doc.Members) != 3 {
		t.Errorf("cluster doc members = %v, want 3", doc.Members)
	}
	for _, n := range doc.Nodes {
		if n.StateSinceMS < 0 {
			t.Errorf("node %s: state_since_ms = %d", n.ID, n.StateSinceMS)
		}
	}

	res, err = http.Get(fleet.Nodes[0].URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(res.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	crserve, ok := vars["crserve"]
	if !ok {
		t.Fatal("/debug/vars missing crserve block")
	}
	var own struct {
		Elastic *struct {
			Joins int64 `json:"joins"`
		} `json:"elastic"`
	}
	if err := json.Unmarshal(crserve, &own); err != nil {
		t.Fatal(err)
	}
	if own.Elastic == nil {
		t.Fatal("/debug/vars missing crserve.elastic block")
	}
	if own.Elastic.Joins == 0 {
		t.Errorf("crserve.elastic.joins = 0 after a join")
	}

	// healthz gossips the epoch for probe-driven convergence.
	res, err = http.Get(fleet.Nodes[0].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := res.Header.Get(api.EpochHeader); got != "2" {
		t.Errorf("healthz %s = %q, want \"2\"", api.EpochHeader, got)
	}
}

// TestElasticMigratesResultsAndSessions: the migration routes are the
// result cache and sessions. The former bound-cache push route answers
// 404 on every node, a join still pushes warm results to the joiner,
// and a leave still pushes the leaver's sessions to a survivor.
func TestElasticMigratesResultsAndSessions(t *testing.T) {
	fleet := startTestFleet(t, 2, testFleetOptions())
	specs := make([]*repro.Spec, 32)
	for i := range specs {
		specs[i] = randomSpec(int64(2000+i), 10)
		solveVia(t, fleet.Nodes[0].URL, &api.SolveRequest{Spec: specs[i]})
	}
	joined, err := fleet.Spawn()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	waitForEpoch(t, fleet, 2)
	if got := joined.Elastic.Counters().EntriesAdopted; got == 0 {
		t.Fatal("the joined node adopted no warm results")
	}
	for i, n := range fleet.Nodes {
		if status := migratePush(t, n.URL, "/v1/migrate/bounds", 2, struct{}{}); status != http.StatusNotFound {
			t.Errorf("node %d: POST /v1/migrate/bounds answered %d, want 404", i, status)
		}
	}

	// A session opened for an instance the joiner owns lives there, and
	// moves to a survivor when the joiner leaves.
	var spec *repro.Spec
	for _, s := range specs {
		if ownerIndex(t, fleet, s) == 2 {
			spec = s
			break
		}
	}
	if spec == nil {
		t.Fatal("the joined node owns none of the instances")
	}
	resp, body := post(t, fleet.Nodes[0].URL+"/v1/session", api.OpenSessionRequest{
		SolveRequest: api.SolveRequest{Spec: spec},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: %d %s", resp.StatusCode, body)
	}
	var opened api.SessionResponse
	if err := json.Unmarshal(body, &opened); err != nil {
		t.Fatal(err)
	}
	id := opened.Session.SessionID
	if !holdsSession(joined, id) {
		t.Fatalf("session %s was not opened on the joined node", id)
	}
	if err := fleet.Leave(2); err != nil {
		t.Fatalf("leave: %v", err)
	}
	waitForEpoch(t, fleet, 3)
	if !holdsSession(fleet.Nodes[0], id) && !holdsSession(fleet.Nodes[1], id) {
		t.Fatal("no survivor holds the session after the joined node left")
	}
}
