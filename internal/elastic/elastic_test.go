package elastic

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/api"
	"repro/internal/cluster"
)

func TestElasticNormalizeMembers(t *testing.T) {
	got := NormalizeMembers([]string{"http://b", "", "http://a", "http://b", "http://a"})
	want := []string{"http://a", "http://b"}
	if len(got) != len(want) {
		t.Fatalf("NormalizeMembers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NormalizeMembers = %v, want %v", got, want)
		}
	}
}

func TestElasticDiffMembers(t *testing.T) {
	joined, left := diffMembers(
		[]string{"http://a", "http://b", "http://c"},
		[]string{"http://b", "http://c", "http://d"},
	)
	if len(joined) != 1 || joined[0] != "http://d" {
		t.Errorf("joined = %v, want [http://d]", joined)
	}
	if len(left) != 1 || left[0] != "http://a" {
		t.Errorf("left = %v, want [http://a]", left)
	}
}

// TestElasticMovedDest checks the migration predicate: only keys whose
// ownership actually changed to someone else are pushed, and the moved
// set of a single join is a strict minority of the keyspace.
func TestElasticMovedDest(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	old := cluster.NewRing(members, 64)
	next := cluster.NewRing(append(members, "http://d"), 64)
	dest := MovedDest(old, next, "http://a")

	if got := dest(""); got != "" {
		t.Errorf("dest(\"\") = %q, want \"\"", got)
	}
	moved, total := 0, 2000
	for i := 0; i < total; i++ {
		fp := fmt.Sprintf("fingerprint-%d", i)
		got := dest(fp)
		switch {
		case got == "":
			// Either unchanged ownership or owned by self — both keep.
			if next.Owner(fp) != old.Owner(fp) && next.Owner(fp) != "http://a" {
				t.Fatalf("dest(%q) = \"\" but owner moved %s -> %s", fp, old.Owner(fp), next.Owner(fp))
			}
		default:
			if got != next.Owner(fp) {
				t.Fatalf("dest(%q) = %q, want new owner %q", fp, got, next.Owner(fp))
			}
			if old.Owner(fp) == got {
				t.Fatalf("dest(%q) = %q but ownership did not change", fp, got)
			}
			moved++
		}
	}
	// Consistent hashing: one join over four nodes should move roughly a
	// quarter of the keyspace, never the majority.
	if moved == 0 || moved > total/2 {
		t.Errorf("moved %d/%d keys on a single join; want a proportional minority", moved, total)
	}
}

// TestElasticOwnerDest checks the session push predicate of a leaving
// node: every key goes to its owner in the new ring, including keys whose
// owner did not change, which MovedDest would keep.
func TestElasticOwnerDest(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	old := cluster.NewRing(members, 64)
	next := cluster.NewRing(members[1:], 64)
	dest := ownerDest(next, "http://a")

	if got := dest(""); got != "" {
		t.Errorf("dest(\"\") = %q, want \"\"", got)
	}
	kept := 0
	for i := 0; i < 2000; i++ {
		fp := fmt.Sprintf("fingerprint-%d", i)
		if got, want := dest(fp), next.Owner(fp); got != want {
			t.Fatalf("dest(%q) = %q, want new owner %q", fp, got, want)
		}
		if old.Owner(fp) == next.Owner(fp) {
			kept++
		}
	}
	if kept == 0 {
		t.Error("no key kept its owner across the leave; the case MovedDest drops is not covered")
	}
	// A node that stays in the ring keeps the keys it owns.
	stay := ownerDest(old, "http://a")
	for i := 0; i < 2000; i++ {
		fp := fmt.Sprintf("fingerprint-%d", i)
		if old.Owner(fp) == "http://a" && stay(fp) != "" {
			t.Fatalf("dest(%q) = %q for a key self owns, want \"\"", fp, stay(fp))
		}
	}
}

// fakeFleet counts watcher actions behind adjustable pressure.
type fakeFleet struct {
	nodes          int
	spawns, drains int
}

func testWatcher(t *testing.T, f *fakeFleet, sample *LoadSample) *Watcher {
	t.Helper()
	w, err := NewWatcher(WatcherConfig{
		Sample:       func() (LoadSample, error) { return *sample, nil },
		HighInflight: 100,
		SustainUp:    2,
		SustainDown:  3,
		MinNodes:     2,
		MaxNodes:     4,
		Nodes:        func() int { return f.nodes },
		Spawn:        func() error { f.nodes++; f.spawns++; return nil },
		Drain:        func() error { f.nodes--; f.drains++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestElasticWatcherScales drives the autoscaler tick by tick: sustained
// overload spawns (respecting MaxNodes), sustained underload drains
// (respecting MinNodes), and one non-sustained spike does nothing.
func TestElasticWatcherScales(t *testing.T) {
	f := &fakeFleet{nodes: 2}
	sample := LoadSample{Inflight: 500} // overloaded: > HighInflight
	w := testWatcher(t, f, &sample)

	w.tick()
	if f.spawns != 0 {
		t.Fatalf("spawned after 1 overloaded tick; SustainUp=2")
	}
	w.tick()
	if f.spawns != 1 || f.nodes != 3 {
		t.Fatalf("after sustained overload: spawns=%d nodes=%d, want 1/3", f.spawns, f.nodes)
	}

	// One spike, then calm (inside the hysteresis band): no action ever.
	sample = LoadSample{Inflight: 70} // neither overloaded nor < half
	for i := 0; i < 10; i++ {
		w.tick()
	}
	if f.spawns != 1 || f.drains != 0 {
		t.Fatalf("hysteresis band acted: spawns=%d drains=%d", f.spawns, f.drains)
	}

	// Sustained idle: drain down to MinNodes and stop.
	sample = LoadSample{Inflight: 0}
	for i := 0; i < 12; i++ {
		w.tick()
	}
	if f.nodes != 2 {
		t.Fatalf("drained to %d nodes, want MinNodes=2", f.nodes)
	}
	if f.drains != 1 {
		t.Fatalf("drains = %d, want 1 (3 -> MinNodes=2)", f.drains)
	}

	// Back under pressure: grow to MaxNodes and stop.
	sample = LoadSample{Inflight: 500}
	for i := 0; i < 12; i++ {
		w.tick()
	}
	if f.nodes != 4 {
		t.Fatalf("grew to %d nodes, want MaxNodes=4", f.nodes)
	}

	spawns, drains := w.Scales()
	if spawns != int64(f.spawns) || drains != int64(f.drains) {
		t.Errorf("Scales() = %d/%d, fleet saw %d/%d", spawns, drains, f.spawns, f.drains)
	}
}

// TestElasticCheckEpoch exercises the migration-push guard: missing and
// malformed headers are invalid requests, an epoch below the receiver's
// view is a counted stale rejection, and current/future epochs pass.
func TestElasticCheckEpoch(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Self:  "http://self",
		Peers: []string{"http://self", "http://peer"},
		Epoch: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	m := New(Config{Cluster: cl})

	mk := func(header string) error {
		r := httptest.NewRequest("POST", "/v1/migrate/cache", nil)
		if header != "" {
			r.Header.Set(api.EpochHeader, header)
		}
		return m.CheckEpoch(r)
	}

	if err := mk(""); err == nil {
		t.Error("missing epoch header accepted")
	}
	if err := mk("not-a-number"); err == nil {
		t.Error("malformed epoch header accepted")
	}
	if err := mk("4"); err == nil {
		t.Error("stale epoch accepted")
	} else if ae, ok := err.(*api.Error); !ok || ae.Code != api.CodeStaleEpoch {
		t.Errorf("stale epoch error = %v, want code %q", err, api.CodeStaleEpoch)
	}
	if err := mk("5"); err != nil {
		t.Errorf("current epoch rejected: %v", err)
	}
	if err := mk("6"); err != nil {
		t.Errorf("future epoch rejected: %v", err)
	}
	if got := m.Counters().StaleEpochRejects; got != 1 {
		t.Errorf("StaleEpochRejects = %d, want 1", got)
	}
}

// TestElasticAdoptEpochOrdering verifies strictly-higher-wins: duplicate
// and stale views are ignored, higher ones apply and re-derive the ring.
func TestElasticAdoptEpochOrdering(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Self:  "http://a",
		Peers: []string{"http://a", "http://b"},
		Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	m := New(Config{Cluster: cl})

	applied, err := m.Adopt(3, []string{"http://a", "http://b", "http://c"})
	if err != nil || !applied {
		t.Fatalf("Adopt(3) = %v, %v; want applied", applied, err)
	}
	if got := cl.Epoch(); got != 3 {
		t.Fatalf("epoch = %d, want 3", got)
	}
	if applied, _ := m.Adopt(3, []string{"http://a"}); applied {
		t.Error("duplicate epoch applied")
	}
	if applied, _ := m.Adopt(2, []string{"http://a"}); applied {
		t.Error("stale epoch applied")
	}
	if got := len(cl.Members()); got != 3 {
		t.Fatalf("members = %d, want 3 (stale adopts must not touch the view)", got)
	}
	if m.Counters().Joins != 1 {
		t.Errorf("Joins = %d, want 1", m.Counters().Joins)
	}
}

func TestElasticWatcherInterval(t *testing.T) {
	f := &fakeFleet{nodes: 1}
	sample := LoadSample{}
	w := testWatcher(t, f, &sample)
	w.Start()
	time.Sleep(10 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent
}
