package cluster

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
)

// State is a member's routing eligibility.
type State int32

const (
	// StateReady: the node answers probes and accepts new routes.
	StateReady State = iota
	// StateDraining: the node is alive but shedding — it finishes
	// in-flight work and must not receive new routes.
	StateDraining
	// StateDead: the node failed NewMembership's failThreshold
	// consecutive probes (three in a Cluster).
	StateDead
)

// String returns the wire name of the state.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// member is one node's live probe bookkeeping.
type member struct {
	id         string
	state      atomic.Int32
	stateSince atomic.Int64 // unix nanos of the last state transition
	failures   atomic.Int32 // consecutive probe failures
	probes     atomic.Int64 // total probes sent
	lastSeen   atomic.Int64 // unix nanos of the last successful probe
}

func newMember(id string) *member {
	p := &member{id: id}
	p.stateSince.Store(time.Now().UnixNano())
	return p
}

// setState stores s, stamping stateSince only on an actual transition.
func (p *member) setState(s State) {
	if p.state.Swap(int32(s)) != int32(s) {
		p.stateSince.Store(time.Now().UnixNano())
	}
}

// MemberInfo is a read-only snapshot of one member.
type MemberInfo struct {
	ID         string
	Self       bool
	State      State
	StateSince time.Time // when the member last changed state
	Failures   int
	LastSeen   time.Time // zero until the first successful probe
}

// Membership probes the peer list and classifies each peer as ready,
// draining or dead. The peer set is dynamic: SetPeers reconciles it
// against a new membership view, keeping the probe history of surviving
// peers and forgetting removed ones (their probes stop on the next
// round).
type Membership struct {
	self     *member
	client   *http.Client
	interval time.Duration
	failMax  int

	mu    sync.RWMutex
	peers []*member // ring construction order
	byID  map[string]*member

	// onEpoch, when set, receives the epoch a peer advertised in its
	// probe response (the gossip path of the elastic membership layer).
	onEpoch atomic.Pointer[func(peer string, epoch uint64)]

	probesTotal  atomic.Int64
	probesFailed atomic.Int64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewMembership tracks self plus peers (node IDs are base URLs such as
// "http://127.0.0.1:8080"). interval is the probe period (default 2s),
// failThreshold the consecutive failures declaring a peer dead (default
// 3). client defaults to a dedicated client with a probe-sized timeout.
func NewMembership(self string, peers []string, interval time.Duration, failThreshold int, client *http.Client) *Membership {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if failThreshold <= 0 {
		failThreshold = 3
	}
	if client == nil {
		client = &http.Client{Timeout: interval}
	}
	m := &Membership{
		byID:     make(map[string]*member, len(peers)+1),
		client:   client,
		interval: interval,
		failMax:  failThreshold,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	m.self = newMember(self)
	m.byID[self] = m.self
	for _, p := range peers {
		m.addPeerLocked(p)
	}
	return m
}

// addPeerLocked registers one peer (caller holds mu, or is constructing).
func (m *Membership) addPeerLocked(p string) {
	if p == "" || p == m.self.id {
		return
	}
	if _, dup := m.byID[p]; dup {
		return
	}
	// Peers start ready: optimism costs one failed forward (which the
	// breaker absorbs), pessimism would serve everything locally until
	// the first probe round scatters the caches.
	mem := newMember(p)
	m.byID[p] = mem
	m.peers = append(m.peers, mem)
}

// SetPeers reconciles the probe set against a new peer list: surviving
// peers keep their member record (state, failure and probe history),
// new peers start optimistically ready, and removed peers are forgotten
// — they drop out of Snapshot/State immediately and receive no further
// probes. An in-flight probe of a removed peer settles into its orphaned
// record and is garbage collected with it.
func (m *Membership) SetPeers(peers []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keep := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p != "" && p != m.self.id {
			keep[p] = true
		}
	}
	next := m.peers[:0:0]
	for _, p := range m.peers {
		if keep[p.id] {
			next = append(next, p)
			delete(keep, p.id)
		} else {
			delete(m.byID, p.id)
		}
	}
	m.peers = next
	for _, p := range peers {
		m.addPeerLocked(p)
	}
}

// OnEpoch registers the callback invoked with the epoch a peer's probe
// response advertised (api.EpochHeader on /healthz). Safe to call at any
// time; the latest registration wins.
func (m *Membership) OnEpoch(fn func(peer string, epoch uint64)) {
	if fn == nil {
		m.onEpoch.Store(nil)
		return
	}
	m.onEpoch.Store(&fn)
}

// Start launches the background probe loop (an immediate round, then one
// per interval). Stop ends it.
func (m *Membership) Start() {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(m.done)
		ctx := context.Background()
		m.ProbeNow(ctx)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.ProbeNow(ctx)
			}
		}
	}()
}

// Stop ends the probe loop and waits for it to exit. Safe to call twice,
// and a no-op when Start never ran.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	if !m.started.Load() {
		return
	}
	select {
	case <-m.done:
	case <-time.After(m.interval + time.Second):
	}
}

// ProbeNow runs one synchronous probe round over every current peer
// (self is never probed: its state is set directly by SetSelfState).
func (m *Membership) ProbeNow(ctx context.Context) {
	m.mu.RLock()
	peers := make([]*member, len(m.peers))
	copy(peers, m.peers)
	m.mu.RUnlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *member) {
			defer wg.Done()
			m.probe(ctx, p)
		}(p)
	}
	wg.Wait()
}

// probe classifies one peer from a GET /healthz: 200 "ok" is ready, a
// body containing "draining" (any status: the node is alive, just
// shedding) is draining, anything else is a failure. A live response
// carrying an epoch header feeds the gossip callback, so a node that
// missed a membership broadcast still learns a newer view exists.
func (m *Membership) probe(ctx context.Context, p *member) {
	p.probes.Add(1)
	m.probesTotal.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.id+"/healthz", nil)
	if err != nil {
		m.fail(p)
		return
	}
	resp, err := m.client.Do(req)
	if err != nil {
		m.fail(p)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	switch {
	case strings.Contains(string(body), "draining"):
		m.alive(p, StateDraining)
	case resp.StatusCode == http.StatusOK:
		m.alive(p, StateReady)
	default:
		m.fail(p)
		return
	}
	if h := resp.Header.Get(api.EpochHeader); h != "" {
		if epoch, err := strconv.ParseUint(h, 10, 64); err == nil {
			if fn := m.onEpoch.Load(); fn != nil {
				(*fn)(p.id, epoch)
			}
		}
	}
}

func (m *Membership) alive(p *member, s State) {
	p.failures.Store(0)
	p.lastSeen.Store(time.Now().UnixNano())
	p.setState(s)
}

func (m *Membership) fail(p *member) {
	m.probesFailed.Add(1)
	if int(p.failures.Add(1)) >= m.failMax {
		p.setState(StateDead)
	}
}

// State returns a node's current state; unknown IDs are dead.
func (m *Membership) State(id string) State {
	m.mu.RLock()
	p, ok := m.byID[id]
	m.mu.RUnlock()
	if !ok {
		return StateDead
	}
	return State(p.state.Load())
}

// Known reports whether the membership currently tracks id.
func (m *Membership) Known(id string) bool {
	m.mu.RLock()
	_, ok := m.byID[id]
	m.mu.RUnlock()
	return ok
}

// SetSelfState flips this node's own advertised state (used by the
// serving layer when it starts draining).
func (m *Membership) SetSelfState(s State) { m.self.setState(s) }

// Self returns this node's ID.
func (m *Membership) Self() string { return m.self.id }

// Probes reports (total, failed) probe counts.
func (m *Membership) Probes() (total, failed int64) {
	return m.probesTotal.Load(), m.probesFailed.Load()
}

// Snapshot returns every member's info, self first then peers in
// construction order.
func (m *Membership) Snapshot() []MemberInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]MemberInfo, 0, len(m.peers)+1)
	out = append(out, memberInfo(m.self, true))
	for _, p := range m.peers {
		out = append(out, memberInfo(p, false))
	}
	return out
}

func memberInfo(p *member, self bool) MemberInfo {
	info := MemberInfo{
		ID:       p.id,
		Self:     self,
		State:    State(p.state.Load()),
		Failures: int(p.failures.Load()),
	}
	if ns := p.stateSince.Load(); ns != 0 {
		info.StateSince = time.Unix(0, ns)
	}
	if ns := p.lastSeen.Load(); ns != 0 {
		info.LastSeen = time.Unix(0, ns)
	}
	return info
}
