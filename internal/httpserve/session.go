package httpserve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro"
	"repro/api"
)

// sessionEntry is one live session with its bookkeeping. lastUsed is
// guarded by the server's session lock; defaults are the solve
// parameters captured at open, immutable afterwards — they travel with
// the session when it migrates so the adopter re-opens it identically.
type sessionEntry struct {
	sess     *repro.Session
	defaults api.SolveRequest
	lastUsed time.Time
}

// handleSessionOpen creates a session from the request's spec; the other
// request parameters become the session's solve defaults.
//
//	POST /v1/session
func (s *server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	s.sessionCalls.Add(1)
	var req api.OpenSessionRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer body.release()
	tree, err := req.Tree()
	if err != nil {
		s.fail(w, err)
		return
	}
	// Route the open to the initial tree's ring owner so the session's
	// warm state lives next to the instance's result cache. No hedging:
	// a raced open could mint a second (orphan) session on the loser.
	if s.maybeForward(w, r, repro.Fingerprint(tree), body, false) {
		return
	}
	sess, err := s.cfg.Service.OpenSession(tree, req.Options()...)
	if err != nil {
		s.fail(w, err)
		return
	}
	defaults := req.SolveRequest
	defaults.Spec = nil // the tree travels separately (and mutates)
	id, err := s.storeSession(sess, defaults)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, &api.SessionResponse{
		APIVersion: api.Version,
		Session:    api.NewSessionState(id, sess),
	})
}

// handleSessionGet reports a session's current state.
//
//	GET /v1/session/{id}
func (s *server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id, sess, err := s.lookupSession(r)
	if err != nil {
		s.sessionFail(w, r, err)
		return
	}
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, &api.SessionResponse{
		APIVersion: api.Version,
		Session:    api.NewSessionState(id, sess),
	})
}

// handleSessionMutate advances a session one revision; with resolve=true
// it also solves the new revision in the same round trip.
//
//	POST /v1/session/{id}/mutate
func (s *server) handleSessionMutate(w http.ResponseWriter, r *http.Request) {
	s.mutates.Add(1)
	id, sess, err := s.lookupSession(r)
	if err != nil {
		s.sessionFail(w, r, err)
		return
	}
	var req api.MutateRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	body.release()
	muts, err := api.CompileMutations(req.Mutations)
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := sess.Mutate(muts...); err != nil {
		// A rejected mutation is a client problem: it addressed a node
		// that does not exist or described an invalid revision. The
		// session itself is untouched (Mutate is atomic).
		s.fail(w, &api.Error{Code: api.CodeInvalidRequest, Message: err.Error()})
		return
	}
	resp := &api.SessionResponse{APIVersion: api.Version}
	if req.Resolve {
		out, tree, status, err := s.resolveSession(r, sess)
		if err != nil {
			// The mutation already applied: the revision advanced even
			// though the solve failed. Stamp the post-mutation state into
			// the error so clients never blind-retry the mutation batch.
			wire := api.FromError(err)
			if wire.Details == nil {
				wire.Details = map[string]string{}
			}
			wire.Details["session_id"] = id
			wire.Details["mutations_applied"] = "true"
			wire.Details["fingerprint"] = repro.Fingerprint(tree)
			s.fail(w, wire)
			return
		}
		s.recordOutcome(out, status)
		resp.Response = api.NewSolveResponse(tree, out, status)
	}
	resp.Session = api.NewSessionState(id, sess)
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionResolve solves the session's current revision — warm when
// a previous outcome exists, through the shared result cache always.
//
//	POST /v1/session/{id}/resolve
func (s *server) handleSessionResolve(w http.ResponseWriter, r *http.Request) {
	id, sess, err := s.lookupSession(r)
	if err != nil {
		s.sessionFail(w, r, err)
		return
	}
	out, tree, status, err := s.resolveSession(r, sess)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.recordOutcome(out, status)
	// Render against the revision the outcome was solved on: a concurrent
	// mutate may already have advanced sess.Tree().
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, &api.SessionResponse{
		APIVersion: api.Version,
		Session:    api.NewSessionState(id, sess),
		Response:   api.NewSolveResponse(tree, out, status),
	})
}

// handleSessionClose deletes a session.
//
//	DELETE /v1/session/{id}
func (s *server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id, sess, err := s.lookupSession(r)
	if err != nil {
		s.sessionFail(w, r, err)
		return
	}
	s.sessMu.Lock()
	delete(s.sessions, id)
	s.sessMu.Unlock()
	s.stampSelf(w)
	writeJSON(w, http.StatusOK, &api.SessionResponse{
		APIVersion: api.Version,
		Session:    api.NewSessionState(id, sess),
	})
}

func (s *server) resolveSession(r *http.Request, sess *repro.Session) (*repro.Outcome, *repro.Tree, repro.CacheStatus, error) {
	s.resolves.Add(1)
	ctx, cancel := s.requestContext(r)
	defer cancel()
	return sess.ResolveRevision(ctx)
}

// errSessionNotFound is returned (wrapped with the ID) for lookups of
// unknown, expired or evicted sessions.
var errSessionNotFound = errors.New("unknown session")

// errRelocated reports a lookup that missed because the session migrated
// away mid-request — the call raced sessionRelocated between the routing
// check and the table lookup. sessionFail turns it into a proxy/redirect
// to the adopter instead of a not_found.
type errRelocated struct{ id, node string }

func (e *errRelocated) Error() string {
	return fmt.Sprintf("session %q relocated to %s", e.id, e.node)
}

// sessionFail answers a failed session lookup: a mid-request relocation
// re-routes to the adopter; anything else goes to the client as-is.
func (s *server) sessionFail(w http.ResponseWriter, r *http.Request, err error) {
	var rel *errRelocated
	if errors.As(err, &rel) {
		s.routeTo(w, r, rel.id, rel.node)
		return
	}
	s.fail(w, err)
}

// storeSession registers a session under a fresh random ID, evicting
// expired sessions first and, when the table is still full, the least
// recently used live one — long-idle dynamic workloads lose their warm
// state rather than blocking new ones (clients re-open on not_found).
//
// In cluster mode the ID is prefixed with this node's ring tag
// ("<tag>-<random>"): the session is pinned to its creator, and any
// fleet member receiving a call for it can route to the owner from the
// ID alone (see sessionRouted).
func (s *server) storeSession(sess *repro.Session, defaults api.SolveRequest) (string, error) {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("httpserve: minting session id: %w", err)
	}
	id := hex.EncodeToString(raw[:])
	if cl := s.cfg.Cluster; cl != nil {
		id = cl.SelfTag() + "-" + id
	}
	now := time.Now()

	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if ttl := s.cfg.SessionTTL; ttl > 0 {
		for k, e := range s.sessions {
			if now.Sub(e.lastUsed) > ttl {
				delete(s.sessions, k)
				s.sessionsEvicted.Add(1)
			}
		}
	}
	if max := s.cfg.MaxSessions; max > 0 && len(s.sessions) >= max {
		lruID, lruAt := "", now
		for k, e := range s.sessions {
			if e.lastUsed.Before(lruAt) {
				lruID, lruAt = k, e.lastUsed
			}
		}
		if lruID != "" {
			delete(s.sessions, lruID)
			s.sessionsEvicted.Add(1)
		}
	}
	s.sessions[id] = &sessionEntry{sess: sess, defaults: defaults, lastUsed: now}
	return id, nil
}

// adoptSession registers a migrated session under its original ID — the
// pin that keeps the ID resolving across the move (the old owner's
// tombstone points here, and this node's lookups find it directly). Any
// tombstone this node holds for the ID is cleared: the session may have
// bounced back in a later view change.
func (s *server) adoptSession(id string, sess *repro.Session, defaults api.SolveRequest) {
	s.sessMu.Lock()
	s.sessions[id] = &sessionEntry{sess: sess, defaults: defaults, lastUsed: time.Now()}
	s.sessMu.Unlock()
	s.clearRelocation(id)
}

// hasSession reports whether the ID is in the local table, without
// refreshing its idle clock — the routing-layer check for sessions
// adopted from a departed owner.
func (s *server) hasSession(id string) bool {
	s.sessMu.Lock()
	_, ok := s.sessions[id]
	s.sessMu.Unlock()
	return ok
}

// lookupSession resolves the {id} path segment, refreshing the entry's
// idle clock and enforcing the TTL on the spot.
func (s *server) lookupSession(r *http.Request) (string, *repro.Session, error) {
	id := r.PathValue("id")
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	e, ok := s.sessions[id]
	if ok && s.cfg.SessionTTL > 0 && now.Sub(e.lastUsed) > s.cfg.SessionTTL {
		delete(s.sessions, id)
		s.sessionsEvicted.Add(1)
		ok = false
	}
	if !ok {
		if node := s.relocatedTo(id); node != "" {
			return "", nil, &errRelocated{id: id, node: node}
		}
		return "", nil, &api.Error{
			Code:    api.CodeNotFound,
			Message: fmt.Sprintf("%v: %q", errSessionNotFound, id),
		}
	}
	e.lastUsed = now
	return id, e.sess, nil
}

// sessionCount reports the live session count (for /debug/vars).
func (s *server) sessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}
