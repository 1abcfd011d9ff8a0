package elastic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/cluster"
)

// Exports are the serving layer's state-export hooks: how the manager
// reaches the warm state it must push on a view change. All are
// optional; a nil hook exports nothing of that kind.
type Exports struct {
	// Results returns the warm result-cache entries to push, grouped by
	// destination node (dest maps fingerprint → new owner, "" = keep).
	Results func(dest func(fingerprint string) string, limit int) map[string][]api.MigratedResult
	// Sessions returns the session snapshots to push, grouped by
	// destination — called only when this node is leaving the view
	// (sessions are ID-pinned to their creator otherwise).
	Sessions func(dest func(fingerprint string) string) map[string][]api.MigratedSession
	// SessionsPushed is called once per session after its destination
	// acknowledged the push — the serving layer's cue to drop the local
	// copy and leave a relocation tombstone.
	SessionsPushed func(id, node string)
}

// cacheLimit caps result-cache entries pushed per view change.
const cacheLimit = 256

// Config parameterises a Manager.
type Config struct {
	// Cluster is the node's routing view (required).
	Cluster *cluster.Cluster
	// Client issues migration pushes, broadcasts and gossip pulls
	// (default: 10s timeout).
	Client *http.Client
	// Exports supply the state to push.
	Exports Exports
	// OnSelfRemoved fires when an applied view no longer contains this
	// node (the serving layer starts draining).
	OnSelfRemoved func()
	// Logf, when set, receives human-readable progress lines.
	Logf func(format string, args ...any)
}

// Counters is a snapshot of the manager's /debug/vars counters.
type Counters struct {
	Joins             int64 `json:"joins"`
	Leaves            int64 `json:"leaves"`
	Migrations        int64 `json:"migrations"`
	EntriesPushed     int64 `json:"entries_pushed"`
	EntriesAdopted    int64 `json:"entries_adopted"`
	StaleEpochRejects int64 `json:"stale_epoch_rejects"`
}

// Manager drives one node's elastic membership: it applies and proposes
// epoch-numbered views, pushes moved warm state before flipping routing,
// and guards the migration endpoints against stale pushes.
type Manager struct {
	cfg    Config
	client *http.Client

	mu sync.Mutex // serialises view transitions (propose/adopt)

	joins, leaves, migrations     atomic.Int64
	entriesPushed, entriesAdopted atomic.Int64
	staleRejects                  atomic.Int64
	fetching                      atomic.Bool
}

// New builds a Manager over cl's cluster view.
func New(cfg Config) *Manager {
	if cfg.Cluster == nil {
		panic("elastic: Config.Cluster is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Manager{cfg: cfg, client: cfg.Client}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Epoch returns the current view's epoch.
func (m *Manager) Epoch() uint64 { return m.cfg.Cluster.Epoch() }

// Counters snapshots the migration counters.
func (m *Manager) Counters() Counters {
	return Counters{
		Joins:             m.joins.Load(),
		Leaves:            m.leaves.Load(),
		Migrations:        m.migrations.Load(),
		EntriesPushed:     m.entriesPushed.Load(),
		EntriesAdopted:    m.entriesAdopted.Load(),
		StaleEpochRejects: m.staleRejects.Load(),
	}
}

// CountAdopted records entries adopted from a migration push (called by
// the serving layer's migrate handlers).
func (m *Manager) CountAdopted(n int) {
	if n > 0 {
		m.entriesAdopted.Add(int64(n))
	}
}

// Propose mints the next epoch for members, applies the view locally
// (pushing moved warm state before routing flips) and broadcasts the
// numbered view, best-effort, to every node involved. The entry point of
// operator updates, seed-list reloads and the autoscaler.
func (m *Manager) Propose(members []string) (uint64, error) {
	members = NormalizeMembers(members)
	if len(members) == 0 {
		return 0, fmt.Errorf("elastic: proposing an empty member list")
	}
	m.mu.Lock()
	old := m.cfg.Cluster.Members()
	epoch := m.cfg.Cluster.Epoch() + 1
	applied := m.applyLocked(epoch, members)
	m.mu.Unlock()
	if !applied {
		// Only a concurrent transition can beat current+1; the caller can
		// re-propose against the newer view.
		return 0, fmt.Errorf("elastic: view superseded while proposing epoch %d", epoch)
	}
	m.broadcast(epoch, members, old)
	return epoch, nil
}

// Adopt applies an already-numbered view learned from a peer (an
// operator relay, a broadcast, or a gossip pull). Stale or duplicate
// epochs are ignored (applied=false, nil error).
func (m *Manager) Adopt(epoch uint64, members []string) (applied bool, err error) {
	members = NormalizeMembers(members)
	if len(members) == 0 {
		return false, fmt.Errorf("elastic: adopting an empty member list")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(epoch, members), nil
}

// applyLocked pushes moved state and flips the view. Caller holds m.mu,
// which makes the epoch check race-free: only this method stores views.
func (m *Manager) applyLocked(epoch uint64, members []string) bool {
	cl := m.cfg.Cluster
	if epoch <= cl.Epoch() {
		return false
	}
	old := cl.Members()
	joined, left := diffMembers(old, members)
	m.pushState(epoch, members, cl.Ring(), cl.BuildRing(members))
	if _, ok := cl.ApplyView(epoch, members); !ok {
		return false
	}
	m.joins.Add(int64(len(joined)))
	m.leaves.Add(int64(len(left)))
	m.logf("elastic: applied epoch %d (%d members, +%d/-%d)", epoch, len(members), len(joined), len(left))
	if !contains(members, cl.Self()) && m.cfg.OnSelfRemoved != nil {
		m.cfg.OnSelfRemoved()
	}
	return true
}

func contains(list []string, m string) bool {
	for _, x := range list {
		if x == m {
			return true
		}
	}
	return false
}

// pushState pushes this node's moved warm state under the new epoch,
// before the routing flip: result-cache entries whose fingerprint
// changed owner and — when this node is leaving the view — every one of
// its sessions to its fingerprint's owner in the new ring. Sessions are
// pinned by ID to this node, not by fingerprint, so a session whose
// fingerprint kept its owner must move too. Push failures are logged and dropped: the state is a
// performance asset, not correctness, and the receiver re-proves
// anything that did not arrive. Sessions are the exception — a session
// is only forgotten locally after its destination acknowledged it.
func (m *Manager) pushState(epoch uint64, members []string, oldRing, newRing *cluster.Ring) {
	self := m.cfg.Cluster.Self()
	dest := MovedDest(oldRing, newRing, self)
	pushed := false

	if ex := m.cfg.Exports.Results; ex != nil {
		for node, entries := range ex(dest, cacheLimit) {
			if len(entries) == 0 {
				continue
			}
			if m.post(node, "/v1/migrate/cache", epoch, api.MigrateResultsRequest{Entries: entries}) {
				m.entriesPushed.Add(int64(len(entries)))
				pushed = true
				m.logf("elastic: pushed %d warm results to %s", len(entries), node)
			}
		}
	}
	if ex := m.cfg.Exports.Sessions; ex != nil && !contains(members, self) {
		for node, sessions := range ex(ownerDest(newRing, self)) {
			if len(sessions) == 0 {
				continue
			}
			if m.post(node, "/v1/migrate/sessions", epoch, api.MigrateSessionsRequest{Sessions: sessions}) {
				m.entriesPushed.Add(int64(len(sessions)))
				pushed = true
				m.logf("elastic: relocated %d sessions to %s", len(sessions), node)
				if cb := m.cfg.Exports.SessionsPushed; cb != nil {
					for i := range sessions {
						cb(sessions[i].ID, node)
					}
				}
			}
		}
	}
	if pushed {
		m.migrations.Add(1)
	}
}

// post sends one epoch-stamped JSON POST, reporting acceptance.
func (m *Manager) post(node, path string, epoch uint64, payload any) bool {
	body, err := json.Marshal(payload)
	if err != nil {
		m.logf("elastic: encoding %s push: %v", path, err)
		return false
	}
	req, err := http.NewRequest(http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.EpochHeader, strconv.FormatUint(epoch, 10))
	resp, err := m.client.Do(req)
	if err != nil {
		m.logf("elastic: push %s to %s failed: %v", path, node, err)
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		m.logf("elastic: push %s to %s rejected: %d", path, node, resp.StatusCode)
		return false
	}
	return true
}

// broadcast relays a numbered view, concurrently and best-effort, to
// the union of old and new members (minus self): leavers must learn
// they are out, joiners must learn they are in, and nodes unreachable
// right now catch up through probe gossip.
func (m *Manager) broadcast(epoch uint64, members, old []string) {
	targets := map[string]bool{}
	for _, n := range members {
		targets[n] = true
	}
	for _, n := range old {
		targets[n] = true
	}
	delete(targets, m.cfg.Cluster.Self())
	var wg sync.WaitGroup
	for node := range targets {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			m.post(node, "/v1/cluster/members", epoch, api.MembersUpdateRequest{Epoch: epoch, Members: members})
		}(node)
	}
	wg.Wait()
}

// ObserveEpoch is the probe-gossip sink (wired to cluster.OnEpoch): a
// peer's /healthz advertised a view newer than ours, so pull it. One
// pull runs at a time; repeats while it is in flight are dropped.
func (m *Manager) ObserveEpoch(peer string, epoch uint64) {
	if epoch <= m.cfg.Cluster.Epoch() {
		return
	}
	if !m.fetching.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer m.fetching.Store(false)
		m.fetchFrom(peer)
	}()
}

// fetchFrom pulls a peer's current view (GET /v1/cluster) and adopts it.
func (m *Manager) fetchFrom(peer string) {
	resp, err := m.client.Get(peer + "/v1/cluster")
	if err != nil {
		m.logf("elastic: gossip pull from %s failed: %v", peer, err)
		return
	}
	defer resp.Body.Close()
	var doc api.ClusterResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
		m.logf("elastic: gossip pull from %s undecodable: %v", peer, err)
		return
	}
	if doc.Epoch == 0 || len(doc.Members) == 0 {
		return
	}
	if applied, _ := m.Adopt(doc.Epoch, doc.Members); applied {
		m.logf("elastic: adopted epoch %d via gossip from %s", doc.Epoch, peer)
	}
}

// CheckEpoch guards a migration push: the request must carry
// api.EpochHeader, and an epoch below the receiver's current view is a
// stale push from a superseded ring — rejected and counted.
func (m *Manager) CheckEpoch(r *http.Request) error {
	h := r.Header.Get(api.EpochHeader)
	if h == "" {
		return &api.Error{Code: api.CodeInvalidRequest,
			Message: fmt.Sprintf("migration push missing %s header", api.EpochHeader)}
	}
	epoch, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return &api.Error{Code: api.CodeInvalidRequest,
			Message: fmt.Sprintf("malformed %s header %q", api.EpochHeader, h)}
	}
	if cur := m.cfg.Cluster.Epoch(); epoch < cur {
		m.staleRejects.Add(1)
		return &api.Error{Code: api.CodeStaleEpoch,
			Message: fmt.Sprintf("push at epoch %d below current view %d", epoch, cur)}
	}
	return nil
}
