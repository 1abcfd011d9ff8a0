package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
)

// maxForwardBody caps how much of a peer's response one forward buffers
// (batches can be large; a misbehaving peer must not OOM the proxy).
const maxForwardBody = 64 << 20

// Config parameterises one node's view of the fleet.
type Config struct {
	// Self is this node's advertised base URL (required; it is the node's
	// identity on the ring).
	Self string
	// Peers are the other nodes' base URLs (initial seed list; the view
	// can grow and shrink at runtime via ApplyView).
	Peers []string
	// Epoch numbers the initial membership view (default 0). Any view
	// applied at runtime must carry a strictly higher epoch.
	Epoch uint64
	// VirtualNodes per member on the ring (default 64).
	VirtualNodes int
	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration
	// HedgeDelay is how long a forward waits on the primary before racing
	// the next replica (default 50ms).
	HedgeDelay time.Duration
	// BreakerThreshold/BreakerCooldown tune the per-peer circuit breakers
	// (defaults 3 failures / 3s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Client issues forwards and probes (default: dedicated client with
	// no global timeout; per-request contexts bound each call).
	Client *http.Client
}

// Stats is a snapshot of the node's routing counters.
type Stats struct {
	Forwards        int64 `json:"forwards"`         // requests answered by a peer
	ForwardFailures int64 `json:"forward_failures"` // per-attempt transport/5xx failures
	Hedges          int64 `json:"hedges"`           // secondary attempts raced against a slow primary
	LocalFallbacks  int64 `json:"local_fallbacks"`  // peer-owned solves served locally (owners down)
	ScatterBatches  int64 `json:"scatter_batches"`  // batches split by owner and fanned out
	Redirects       int64 `json:"redirects"`        // 307s to a session's owner
	ProxiedSessions int64 `json:"proxied_sessions"` // session calls proxied to their owner
	Probes          int64 `json:"probes"`
	ProbeFailures   int64 `json:"probe_failures"`
}

// NodeInfo is one member's introspection record (see httpserve's
// /v1/cluster).
type NodeInfo struct {
	ID         string
	Tag        string
	Self       bool
	State      State
	StateSince time.Time
	Failures   int
	LastSeen   time.Time
}

// view is one immutable epoch of the fleet: the ring, the tag index and
// the per-peer breakers. Forwarding reads the current view lock-free;
// ApplyView swaps the whole thing atomically, carrying surviving peers'
// breakers across so their failure history is not amnestied by a
// membership change — and dropping removed peers' breakers, which is
// what releases their circuit state.
type view struct {
	epoch    uint64
	ring     *Ring
	byTag    map[string]string
	retired  map[string]string // departed members' tags → last-known URL
	breakers map[string]*Breaker
}

// maxRetiredTags bounds the departed-member tag table carried across
// views. Overflow drops arbitrary entries: their ID-pinned calls answer
// not_found, as an evicted session would.
const maxRetiredTags = 64

// Cluster is one node's routing brain: the epoch-numbered ring view, the
// membership prober, and the forwarding client with its breakers.
type Cluster struct {
	cfg    Config
	mem    *Membership
	client *http.Client

	viewMu sync.Mutex // serialises view transitions; reads go via v
	v      atomic.Pointer[view]

	forwards, forwardFailures, hedges atomic.Int64
	localFallbacks, scatters          atomic.Int64
	redirects, proxiedSessions        atomic.Int64
}

// New builds the node's cluster view. Start launches the probe loop;
// a Cluster routes correctly before Start (peers are optimistically
// ready), it just cannot notice dead peers until probing begins.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = 50 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Cluster{cfg: cfg, client: client}
	// Three consecutive failed probes declare a peer dead.
	c.mem = NewMembership(cfg.Self, cfg.Peers, cfg.ProbeInterval, 3, client)
	members := append([]string{cfg.Self}, cfg.Peers...)
	c.v.Store(c.buildView(cfg.Epoch, members, nil))
	return c, nil
}

// buildView assembles an immutable view, reusing prev's breakers for
// peers that survive the transition.
func (c *Cluster) buildView(epoch uint64, members []string, prev *view) *view {
	ring := NewRing(members, c.cfg.VirtualNodes)
	nv := &view{
		epoch:    epoch,
		ring:     ring,
		byTag:    make(map[string]string, ring.Len()),
		retired:  make(map[string]string),
		breakers: make(map[string]*Breaker, ring.Len()),
	}
	for _, n := range ring.Nodes() {
		nv.byTag[Tag(n)] = n
		if n == c.cfg.Self {
			continue
		}
		if prev != nil {
			if b, ok := prev.breakers[n]; ok {
				nv.breakers[n] = b
				continue
			}
		}
		nv.breakers[n] = NewBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
	}
	// Members that left this view (or an earlier one) keep their tag
	// resolvable: a departed node serves its relocation tombstones while
	// draining, so ID-pinned calls from third nodes — which route by tag,
	// not by tombstone — must still be able to name it. A tag readopted
	// by a live member always wins over its retired entry.
	if prev != nil {
		carry := func(tag, node string) {
			if _, live := nv.byTag[tag]; !live && len(nv.retired) < maxRetiredTags {
				nv.retired[tag] = node
			}
		}
		for t, n := range prev.retired {
			carry(t, n)
		}
		for t, n := range prev.byTag {
			carry(t, n)
		}
	}
	return nv
}

// Start launches the background health probes.
func (c *Cluster) Start() { c.mem.Start() }

// Stop ends the probe loop.
func (c *Cluster) Stop() { c.mem.Stop() }

// Self returns this node's ID.
func (c *Cluster) Self() string { return c.cfg.Self }

// SelfTag returns this node's session-ID tag.
func (c *Cluster) SelfTag() string { return Tag(c.cfg.Self) }

// Epoch returns the current membership view's epoch.
func (c *Cluster) Epoch() uint64 { return c.v.Load().epoch }

// Ring returns the current view's ring (immutable).
func (c *Cluster) Ring() *Ring { return c.v.Load().ring }

// Members returns the current view's member list in ring order (a copy).
func (c *Cluster) Members() []string {
	nodes := c.v.Load().ring.Nodes()
	out := make([]string, len(nodes))
	copy(out, nodes)
	return out
}

// BuildRing previews the ring a member list would produce under this
// cluster's virtual-node setting, without applying anything — the
// elastic layer diffs it against Ring() to find moved ownership before
// flipping routing.
func (c *Cluster) BuildRing(members []string) *Ring {
	return NewRing(members, c.cfg.VirtualNodes)
}

// ApplyView swaps in a new membership view. The epoch must be strictly
// higher than the current one (stale and duplicate views are ignored);
// on success the previous ring is returned so callers can diff. The
// membership prober is reconciled in the same step: removed peers stop
// being probed and their breaker state is dropped with the old view.
// Self need not be in members — a node that has been voted out keeps
// serving (draining) with a ring that routes everything away from it.
func (c *Cluster) ApplyView(epoch uint64, members []string) (prev *Ring, applied bool) {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	cur := c.v.Load()
	if epoch <= cur.epoch {
		return cur.ring, false
	}
	nv := c.buildView(epoch, members, cur)
	peers := make([]string, 0, len(members))
	for _, n := range members {
		if n != c.cfg.Self {
			peers = append(peers, n)
		}
	}
	c.mem.SetPeers(peers)
	c.v.Store(nv)
	return cur.ring, true
}

// Size returns the fleet size (self included while self is a member).
func (c *Cluster) Size() int { return c.v.Load().ring.Len() }

// VirtualNodes returns the ring's per-node point count.
func (c *Cluster) VirtualNodes() int { return c.v.Load().ring.VirtualNodes() }

// Owner returns the ring owner of key, alive or not — cache-affinity
// ground truth, not a routing decision (use Plan for that).
func (c *Cluster) Owner(key string) string { return c.v.Load().ring.Owner(key) }

// NodeByTag resolves a session-ID tag back to the node it names —
// current members first, then departed ones still answering relocation
// redirects from their draining window.
func (c *Cluster) NodeByTag(tag string) (string, bool) {
	v := c.v.Load()
	if n, ok := v.byTag[tag]; ok {
		return n, true
	}
	n, ok := v.retired[tag]
	return n, ok
}

// OnEpoch registers the gossip callback fed by probe responses (see
// Membership.OnEpoch).
func (c *Cluster) OnEpoch(fn func(peer string, epoch uint64)) { c.mem.OnEpoch(fn) }

// SetDraining flips this node's advertised state, so peers' probes stop
// routing new work here while in-flight requests finish.
func (c *Cluster) SetDraining(on bool) {
	if on {
		c.mem.SetSelfState(StateDraining)
	} else {
		c.mem.SetSelfState(StateReady)
	}
}

// Plan returns the remote forward candidates for key, in ring preference
// order, truncated at self: an empty slice means this node should serve
// the key locally (it is the first routable owner, or every preferred
// peer is unroutable). At most two remotes are returned — the owner and
// its hedge replica; anything beyond that is better served locally than
// through a third network hop.
func (c *Cluster) Plan(key string) []string {
	v := c.v.Load()
	var remotes []string
	for _, n := range v.ring.Replicas(key, v.ring.Len()) {
		if n == c.cfg.Self {
			// Self outranks the remaining replicas: prefer any
			// higher-ranked live remote, else serve locally.
			return remotes
		}
		if c.routableIn(v, n) {
			remotes = append(remotes, n)
			if len(remotes) == 2 {
				return remotes
			}
		}
	}
	return remotes
}

// routableIn reports whether a peer should receive new work now. The
// breaker check is read-only: the half-open trial is claimed only when
// a request is actually sent (forwardOne), never while planning.
func (c *Cluster) routableIn(v *view, n string) bool {
	if c.mem.State(n) != StateReady {
		return false
	}
	b := v.breakers[n]
	return b == nil || b.Routable()
}

// breaker returns node's breaker in the current view (nil for self or
// nodes outside the view — such as one removed mid-flight).
func (c *Cluster) breaker(node string) *Breaker {
	return c.v.Load().breakers[node]
}

// ForwardResult is one successful forward: the peer's verbatim response.
type ForwardResult struct {
	Status int
	Body   []byte
	Node   string
}

// Forward sends the request body to nodes in order with hedging: the
// primary goes out immediately; if it fails fast the next candidate is
// tried at once, and if it is merely slow the next candidate is raced
// against it after HedgeDelay. The first response wins — any HTTP
// response, including 4xx, is authoritative (the peer is alive; the
// request itself was bad), while transport errors and 5xx count against
// the peer's breaker. The request carries the api.ForwardedHeader hop
// guard so the receiving peer always serves it locally.
func (c *Cluster) Forward(ctx context.Context, nodes []string, method, path string, body []byte) (ForwardResult, error) {
	if len(nodes) == 0 {
		return ForwardResult{}, fmt.Errorf("cluster: no forward candidates")
	}
	// One cancel covers every attempt: the winner's body is fully read
	// before Forward returns, so cancelling the losers on return is safe.
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		res ForwardResult
		err error
	}
	ch := make(chan attempt, len(nodes))
	launch := func(node string) {
		go func() {
			res, err := c.forwardOne(actx, node, method, path, body)
			ch <- attempt{res, err}
		}()
	}
	launch(nodes[0])
	launched, pending := 1, 1

	var hedge <-chan time.Time
	if len(nodes) > 1 {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedge = t.C
	}

	var lastErr error
	for pending > 0 {
		select {
		case a := <-ch:
			pending--
			if a.err == nil {
				c.forwards.Add(1)
				return a.res, nil
			}
			lastErr = a.err
			if launched < len(nodes) {
				launch(nodes[launched])
				launched++
				pending++
			}
		case <-hedge:
			hedge = nil
			if launched < len(nodes) {
				c.hedges.Add(1)
				launch(nodes[launched])
				launched++
				pending++
			}
		case <-ctx.Done():
			return ForwardResult{}, ctx.Err()
		}
	}
	return ForwardResult{}, fmt.Errorf("cluster: all %d forward candidates failed: %w", len(nodes), lastErr)
}

// forwardOne issues a single proxied request and settles the peer's
// breaker on the outcome. A cancelled attempt — the hedge race was won
// by another candidate, or the caller's own context expired — says
// nothing about the peer's health, so it releases any claimed half-open
// trial instead of recording a failure.
func (c *Cluster) forwardOne(ctx context.Context, node, method, path string, body []byte) (ForwardResult, error) {
	if b := c.breaker(node); b != nil && !b.Allow() {
		return ForwardResult{}, fmt.Errorf("cluster: %s circuit open", node)
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, node+path, rd)
	if err != nil {
		c.release(node)
		return ForwardResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ForwardedHeader, c.cfg.Self)
	resp, err := c.client.Do(req)
	if err != nil {
		c.settle(ctx, node)
		return ForwardResult{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil {
		c.settle(ctx, node)
		return ForwardResult{}, err
	}
	if resp.StatusCode >= 500 {
		c.settle(ctx, node)
		return ForwardResult{}, fmt.Errorf("cluster: %s answered %d", node, resp.StatusCode)
	}
	if b2 := c.breaker(node); b2 != nil {
		b2.Success()
	}
	return ForwardResult{Status: resp.StatusCode, Body: b, Node: node}, nil
}

// settle records a failed attempt: cancelled attempts are neutral (the
// trial is released, nothing is counted), genuine failures feed the
// breaker and the failure counter.
func (c *Cluster) settle(ctx context.Context, node string) {
	if ctx.Err() != nil {
		c.release(node)
		return
	}
	b := c.breaker(node)
	if b == nil {
		return
	}
	c.forwardFailures.Add(1)
	b.Failure()
}

func (c *Cluster) release(node string) {
	if b := c.breaker(node); b != nil {
		b.Release()
	}
}

// CountLocalFallback, CountScatter, CountRedirect and CountProxiedSession
// let the serving layer record routing outcomes it decides itself, so
// every cluster counter lives in one Stats snapshot.
func (c *Cluster) CountLocalFallback()  { c.localFallbacks.Add(1) }
func (c *Cluster) CountScatter()        { c.scatters.Add(1) }
func (c *Cluster) CountRedirect()       { c.redirects.Add(1) }
func (c *Cluster) CountProxiedSession() { c.proxiedSessions.Add(1) }

// Stats snapshots the routing counters.
func (c *Cluster) Stats() Stats {
	probes, probeFailures := c.mem.Probes()
	return Stats{
		Forwards:        c.forwards.Load(),
		ForwardFailures: c.forwardFailures.Load(),
		Hedges:          c.hedges.Load(),
		LocalFallbacks:  c.localFallbacks.Load(),
		ScatterBatches:  c.scatters.Load(),
		Redirects:       c.redirects.Load(),
		ProxiedSessions: c.proxiedSessions.Load(),
		Probes:          probes,
		ProbeFailures:   probeFailures,
	}
}

// Snapshot returns every member's introspection record, self first.
func (c *Cluster) Snapshot() []NodeInfo {
	infos := c.mem.Snapshot()
	out := make([]NodeInfo, len(infos))
	for i, m := range infos {
		out[i] = NodeInfo{
			ID: m.ID, Tag: Tag(m.ID), Self: m.Self,
			State: m.State, StateSince: m.StateSince,
			Failures: m.Failures, LastSeen: m.LastSeen,
		}
	}
	return out
}
