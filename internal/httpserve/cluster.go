package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/api"
	"repro/internal/cluster"
	"repro/internal/pool"
)

// forwarded reports whether the request already crossed an intra-cluster
// hop: it must then be served locally, whatever this node's ring view
// says, so ring disagreements can never bounce a request between peers.
func forwarded(r *http.Request) bool { return r.Header.Get(api.ForwardedHeader) != "" }

// maybeForward routes a fingerprint-keyed request to its ring owner when
// that owner is a peer, relaying the raw body verbatim; a body it offers
// to a peer is marked forwarded and never reused. It returns true
// when a peer's response (success or authoritative error) was written.
// When every candidate is down it returns false and the caller serves
// locally — capacity degrades, correctness never does. hedge allows the
// next ring replica to be raced against a slow owner; callers with
// side effects that must not run twice (session open) disable it.
func (s *server) maybeForward(w http.ResponseWriter, r *http.Request, key string, body *buffer, hedge bool) bool {
	cl := s.cfg.Cluster
	if cl == nil || forwarded(r) {
		return false
	}
	cands := cl.Plan(key)
	if len(cands) == 0 {
		return false
	}
	if !hedge {
		cands = cands[:1]
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	body.forwarded = true
	res, err := cl.Forward(ctx, cands, r.Method, r.URL.Path, body.b)
	if err != nil {
		// The request's own deadline (or the client) expired while the
		// forward was in flight: that is this request's timeout, not a
		// dead peer — answer it instead of restarting the whole budget
		// on a local solve.
		if ctx.Err() != nil {
			s.fail(w, ctx.Err())
			return true
		}
		cl.CountLocalFallback()
		return false
	}
	writeRaw(w, res)
	return true
}

// stampSelf marks a locally served response with this node's identity.
func (s *server) stampSelf(w http.ResponseWriter) {
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(api.ServedByHeader, cl.Self())
	}
}

// writeRaw relays a peer's verbatim response.
func writeRaw(w http.ResponseWriter, res cluster.ForwardResult) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set(api.ServedByHeader, res.Node)
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

// scatterBatch splits a batch by ring owner, fans the per-owner
// sub-batches out concurrently (locally owned items solve on this node's
// pool), and merges the answers preserving input order and per-item
// errors. Byte-identical duplicate items are deduplicated before
// grouping, so each duplicated instance crosses the wire at most once
// per batch and every duplicate index receives the representative's
// result; the owner's result cache dedupes the remaining (name-variant)
// repeats of one instance. A sub-batch whose owner cannot answer is
// re-solved locally.
func (s *server) scatterBatch(w http.ResponseWriter, r *http.Request, req *api.BatchRequest) {
	cl := s.cfg.Cluster
	cl.CountScatter()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	items := req.Items
	resp := &api.BatchResponse{APIVersion: api.Version, Items: make([]api.BatchItem, len(items))}
	repOf := make([]int, len(items)) // representative index per item (-1: failed to parse)
	keyToRep := make(map[string]int) // dedup identity → representative index
	groups := make(map[string][]int) // primary owner ("" = local) → representative indices
	for i := range items {
		repOf[i] = i
		tree, err := items[i].Tree()
		if err != nil {
			resp.Items[i] = api.BatchItem{Error: api.FromError(err)}
			repOf[i] = -1
			continue
		}
		key := batchItemKey(&items[i])
		if j, ok := keyToRep[key]; ok {
			repOf[i] = j
			continue
		}
		keyToRep[key] = i
		var node string
		if cands := cl.Plan(repro.Fingerprint(tree)); len(cands) > 0 {
			node = cands[0]
		}
		groups[node] = append(groups[node], i)
	}

	var wg sync.WaitGroup
	for node, reps := range groups {
		if node == "" {
			continue
		}
		wg.Add(1)
		go func(node string, reps []int) {
			defer wg.Done()
			s.forwardSubBatch(ctx, node, reps, items, resp.Items)
		}(node, reps)
	}
	if reps := groups[""]; len(reps) > 0 {
		s.solveGroupLocally(ctx, reps, items, resp.Items)
	}
	wg.Wait()

	for i := range resp.Items {
		if j := repOf[i]; j >= 0 && j != i {
			resp.Items[i] = resp.Items[j]
		}
	}
	if err := ctx.Err(); err != nil {
		for i := range resp.Items {
			if resp.Items[i].Response == nil && resp.Items[i].Error == nil {
				resp.Items[i].Error = api.FromError(err)
			}
		}
	}
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, resp)
}

// forwardSubBatch sends one owner's items as a hop-guarded sub-batch and
// writes the answers back into out at the original indices; any failure
// (transport, non-200, malformed or mis-sized reply) falls back to
// solving the group locally.
func (s *server) forwardSubBatch(ctx context.Context, node string, reps []int, items []api.SolveRequest, out []api.BatchItem) {
	cl := s.cfg.Cluster
	sub := api.BatchRequest{Items: make([]api.SolveRequest, len(reps))}
	for k, i := range reps {
		sub.Items[k] = items[i]
	}
	if body, err := json.Marshal(&sub); err == nil {
		if res, err := cl.Forward(ctx, []string{node}, http.MethodPost, "/v1/batch", body); err == nil && res.Status == http.StatusOK {
			var sr api.BatchResponse
			if json.Unmarshal(res.Body, &sr) == nil && len(sr.Items) == len(reps) {
				for k, i := range reps {
					out[i] = sr.Items[k]
				}
				return
			}
		}
	}
	// On batch-context expiry the local pass below marks the items
	// cancelled — that is the request timing out, not a dead owner.
	if ctx.Err() == nil {
		cl.CountLocalFallback()
	}
	s.solveGroupLocally(ctx, reps, items, out)
}

func (s *server) solveGroupLocally(ctx context.Context, reps []int, items []api.SolveRequest, out []api.BatchItem) {
	pool.Run(ctx, len(reps), s.cfg.BatchParallelism, func(k int) {
		i := reps[k]
		out[i] = s.solveItem(ctx, &items[i])
	})
}

// batchItemKey is the scatter-gather dedup identity: the re-marshalled
// wire item. Dedup must be name-sensitive — the instance fingerprint is
// deliberately name-invariant (that is what makes routing and the
// result cache shareable), but a SolveResponse carries node and
// satellite *names*, so only byte-identical items may share one
// representative's response verbatim. Name-variant duplicates of one
// instance still route to the same owner, whose result cache dedupes
// the actual solving and remaps names per tree.
func batchItemKey(it *api.SolveRequest) string {
	b, err := json.Marshal(it)
	if err != nil {
		// Unreachable (the item was just decoded from JSON); an unkeyable
		// item simply never dedupes.
		return fmt.Sprintf("%p", it)
	}
	return string(b)
}

// ownerRouted steers ID-pinned calls — sessions and jobs, whose IDs are
// minted as "<node tag>-<random>" by their owner — to the node the ID
// names: a GET answers 307 (the client can talk to the owner directly
// from then on), mutating calls are proxied with the hop guard. Unknown
// tags fall through to the local lookup's not_found; an unreachable
// owner answers CodeUnavailable — the pinned state (a session's warm
// tree, a job's progress ring) lives only there, so no other node can
// serve it.
//
// Relocation tombstones take precedence over the ID's tag: a session
// this node pushed to a new owner during a membership change keeps
// resolving here, as a redirect or proxy to the adopter. Tombstones live
// only on the old owner — a third node still routes by tag and the old
// owner re-routes — so clients keep their one-redirect contract as long
// as they talk to the node that answered them last.
func (s *server) ownerRouted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cl := s.cfg.Cluster
		if cl == nil || forwarded(r) {
			h(w, r)
			return
		}
		id := r.PathValue("id")
		if dest := s.relocatedTo(id); dest != "" {
			s.routeTo(w, r, id, dest)
			return
		}
		// An adopted session lives here now even though its tag names its
		// original creator — serve it directly, no hop through the
		// departed node's tombstone. (Job IDs never enter the session
		// table; they fall through to tag routing.)
		if s.hasSession(id) {
			h(w, r)
			return
		}
		tag, _, ok := strings.Cut(id, "-")
		if !ok || tag == cl.SelfTag() {
			h(w, r)
			return
		}
		node, known := cl.NodeByTag(tag)
		if !known {
			h(w, r)
			return
		}
		s.routeTo(w, r, id, node)
	}
}

// routeTo sends an ID-pinned call to the node holding its state: GETs
// redirect, mutating calls proxy with the hop guard.
func (s *server) routeTo(w http.ResponseWriter, r *http.Request, id, node string) {
	cl := s.cfg.Cluster
	if r.Method == http.MethodGet {
		cl.CountRedirect()
		w.Header().Set("Location", node+r.URL.Path)
		w.WriteHeader(http.StatusTemporaryRedirect)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.fail(w, &api.Error{Code: api.CodeInvalidRequest, Message: "reading request body: " + err.Error()})
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	cl.CountProxiedSession()
	res, ferr := cl.Forward(ctx, []string{node}, r.Method, r.URL.Path, body)
	if ferr != nil {
		if ctx.Err() != nil {
			s.fail(w, ctx.Err())
			return
		}
		s.fail(w, &api.Error{
			Code:    api.CodeUnavailable,
			Message: fmt.Sprintf("owner %s unreachable", node),
			Details: map[string]string{"id": id, "owner": node},
		})
		return
	}
	writeRaw(w, res)
}

// clusterDoc builds the fleet introspection document. Epoch and Members
// are the authoritative view peers adopt through the gossip pull, so
// they must describe the routing ring — not the membership snapshot,
// which on a draining node still lists this (voted-out) node.
func (s *server) clusterDoc() *api.ClusterResponse {
	resp := &api.ClusterResponse{APIVersion: api.Version}
	cl := s.cfg.Cluster
	if cl == nil {
		return resp
	}
	resp.Enabled = true
	resp.Self = cl.Self()
	resp.Epoch = cl.Epoch()
	resp.Members = cl.Members()
	resp.VirtualNodes = cl.VirtualNodes()
	now := time.Now()
	for _, n := range cl.Snapshot() {
		state := n.State
		if n.Self && s.draining.Load() {
			state = cluster.StateDraining
		}
		node := api.ClusterNode{ID: n.ID, Tag: n.Tag, Self: n.Self, State: state.String(), Failures: n.Failures}
		if !n.StateSince.IsZero() {
			node.StateSinceMS = now.Sub(n.StateSince).Milliseconds()
		}
		if !n.Self {
			if n.LastSeen.IsZero() {
				node.LastSeenMS = -1
			} else {
				node.LastSeenMS = now.Sub(n.LastSeen).Milliseconds()
			}
		}
		resp.Nodes = append(resp.Nodes, node)
	}
	st := cl.Stats()
	resp.Stats = map[string]int64{
		"forwards":         st.Forwards,
		"forward_failures": st.ForwardFailures,
		"hedges":           st.Hedges,
		"local_fallbacks":  st.LocalFallbacks,
		"scatter_batches":  st.ScatterBatches,
		"redirects":        st.Redirects,
		"proxied_sessions": st.ProxiedSessions,
		"probes":           st.Probes,
		"probe_failures":   st.ProbeFailures,
	}
	return resp
}

// handleCluster serves the fleet introspection document.
//
//	GET /v1/cluster
func (s *server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.clusterDoc())
}
