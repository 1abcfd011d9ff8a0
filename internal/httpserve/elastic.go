package httpserve

import (
	"net/http"
	"time"

	"repro"
	"repro/api"
	"repro/internal/elastic"
)

// This file is the serving side of the elastic membership layer: the
// member-admin and migration endpoints, the state-export hooks the
// elastic manager pulls warm state through, and the session relocation
// tombstones that keep ID-pinned calls answerable after their session
// moved to a new owner.

// AttachElastic wires an elastic membership manager onto this node:
// membership can then change at runtime (POST /v1/cluster/members, probe
// gossip) and warm state migrates ahead of every routing flip. client
// issues the manager's pushes (nil = default). Must be called before the
// server starts serving — the manager field is read without a lock.
func (s *server) AttachElastic(client *http.Client) *elastic.Manager {
	cl := s.cfg.Cluster
	if cl == nil {
		panic("httpserve: AttachElastic requires Config.Cluster")
	}
	mgr := elastic.New(elastic.Config{
		Cluster: cl,
		Client:  client,
		Exports: elastic.Exports{
			Results:        s.exportResults,
			Sessions:       s.exportSessions,
			SessionsPushed: s.sessionRelocated,
		},
		// A node voted out of the view starts draining: the new ring routes
		// everything away, and what remains here (tombstone redirects,
		// hop-guarded forwards from lagging peers) it keeps answering.
		OnSelfRemoved: s.Drain,
	})
	s.elastic = mgr
	cl.OnEpoch(mgr.ObserveEpoch)
	return mgr
}

// Elastic returns the attached manager (nil when membership is static).
func (s *server) Elastic() *elastic.Manager { return s.elastic }

// exportResults converts the Service's moved warm cache entries into
// their wire form, grouped by destination node.
func (s *server) exportResults(dest func(fingerprint string) string, limit int) map[string][]api.MigratedResult {
	warm := s.cfg.Service.ExportWarm(limit, dest)
	if len(warm) == 0 {
		return nil
	}
	out := make(map[string][]api.MigratedResult, len(warm))
	for node, entries := range warm {
		batch := make([]api.MigratedResult, 0, len(entries))
		for _, e := range entries {
			batch = append(batch, api.MigratedResult{
				Key:        e.Key,
				Placement:  e.Placement,
				Algorithm:  string(e.Outcome.Algorithm),
				Exact:      e.Outcome.Exact,
				LowerBound: e.Outcome.LowerBound,
				Work:       e.Outcome.Work,
				DP:         e.Outcome.DP,
				ElapsedUS:  e.Outcome.Elapsed.Microseconds(),
			})
		}
		out[node] = batch
	}
	return out
}

// exportSessions snapshots every live session whose instance fingerprint
// has a migration destination. Called only when this node leaves the
// view (sessions are otherwise ID-pinned here); the warm assignment is
// projected onto the current tree when the last solve predates the last
// mutation, so the adopter never sees a stale revision's hint.
func (s *server) exportSessions(dest func(fingerprint string) string) map[string][]api.MigratedSession {
	type liveSession struct {
		id string
		e  *sessionEntry
	}
	s.sessMu.Lock()
	live := make([]liveSession, 0, len(s.sessions))
	for id, e := range s.sessions {
		live = append(live, liveSession{id, e})
	}
	s.sessMu.Unlock()

	var out map[string][]api.MigratedSession
	for _, ls := range live {
		tree, rev := ls.e.sess.Snapshot()
		node := dest(repro.Fingerprint(tree))
		if node == "" {
			continue
		}
		snap := api.MigratedSession{
			ID:       ls.id,
			Spec:     repro.ToSpec(tree, "session"),
			Revision: rev,
			Defaults: ls.e.defaults,
		}
		if wt, wa := ls.e.sess.WarmState(); wa != nil {
			if wt != tree {
				wa = repro.ProjectAssignment(wt, wa, tree)
			}
			if wa != nil {
				snap.Warm = api.AssignmentNames(tree, wa)
			}
		}
		if out == nil {
			out = map[string][]api.MigratedSession{}
		}
		out[node] = append(out[node], snap)
	}
	return out
}

// maxRelocations bounds the tombstone table; overflow drops an arbitrary
// old tombstone (its session then answers not_found here, exactly as an
// evicted one would, and the client re-opens).
const maxRelocations = 4096

// sessionRelocated drops a session whose push was acknowledged and
// leaves a relocation tombstone: calls for the ID keep resolving — as a
// redirect or proxy to the adopter — from the node clients knew. The
// tombstone lands before the session is dropped, so a concurrent lookup
// that misses the table always finds the tombstone (lookupSession checks
// it on every miss) and the call proxies instead of answering not_found.
func (s *server) sessionRelocated(id, node string) {
	s.relocMu.Lock()
	if len(s.relocated) >= maxRelocations {
		for k := range s.relocated {
			delete(s.relocated, k)
			break
		}
	}
	s.relocated[id] = node
	s.relocMu.Unlock()
	s.sessMu.Lock()
	delete(s.sessions, id)
	s.sessMu.Unlock()
}

// relocatedTo reports where a migrated session went ("" = not migrated).
func (s *server) relocatedTo(id string) string {
	s.relocMu.Lock()
	defer s.relocMu.Unlock()
	return s.relocated[id]
}

// clearRelocation forgets a tombstone (the session came back here).
func (s *server) clearRelocation(id string) {
	s.relocMu.Lock()
	delete(s.relocated, id)
	s.relocMu.Unlock()
}

var errElasticDisabled = &api.Error{
	Code:    api.CodeInvalidRequest,
	Message: "elastic membership is not enabled on this node",
}

// handleMembersUpdate applies a membership change. Epoch 0 is an
// operator proposal (this node mints the next epoch and broadcasts);
// a non-zero epoch is a numbered view relayed by a peer.
//
//	POST /v1/cluster/members
func (s *server) handleMembersUpdate(w http.ResponseWriter, r *http.Request) {
	mgr := s.elastic
	if mgr == nil {
		s.fail(w, errElasticDisabled)
		return
	}
	var req api.MembersUpdateRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	body.release()
	applied := false
	if req.Epoch == 0 {
		if _, err := mgr.Propose(req.Members); err != nil {
			s.fail(w, &api.Error{Code: api.CodeInvalidRequest, Message: err.Error()})
			return
		}
		applied = true
	} else {
		ok, err := mgr.Adopt(req.Epoch, req.Members)
		if err != nil {
			s.fail(w, &api.Error{Code: api.CodeInvalidRequest, Message: err.Error()})
			return
		}
		applied = ok
	}
	cl := s.cfg.Cluster
	writeJSON(w, http.StatusOK, &api.MembersUpdateResponse{
		APIVersion: api.Version,
		Applied:    applied,
		Epoch:      cl.Epoch(),
		Members:    cl.Members(),
	})
}

// handleMigrateCache adopts pushed warm result-cache entries. Entries
// AdoptWarm rejects are skipped, not fatal: migrated state is a
// performance asset, and a dropped entry costs one cold solve. No tree
// is built here; each hit on an adopted entry is placed and
// re-evaluated on the requester's tree.
//
//	POST /v1/migrate/cache
func (s *server) handleMigrateCache(w http.ResponseWriter, r *http.Request) {
	mgr := s.elastic
	if mgr == nil {
		s.fail(w, errElasticDisabled)
		return
	}
	if err := mgr.CheckEpoch(r); err != nil {
		s.fail(w, err)
		return
	}
	var req api.MigrateResultsRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	body.release()
	adopted := 0
	for i := range req.Entries {
		e := &req.Entries[i]
		out := &repro.Outcome{
			Algorithm:  repro.Algorithm(e.Algorithm),
			Exact:      e.Exact,
			Elapsed:    time.Duration(e.ElapsedUS) * time.Microsecond,
			Work:       e.Work,
			DP:         e.DP,
			LowerBound: e.LowerBound,
		}
		if s.cfg.Service.AdoptWarm(e.Key, e.Placement, out) == nil {
			adopted++
		}
	}
	mgr.CountAdopted(adopted)
	writeJSON(w, http.StatusOK, &api.MigrateResponse{APIVersion: api.Version, Adopted: adopted})
}

// handleMigrateSessions adopts pushed session snapshots: each is
// re-opened under its original ID (so the old owner's tombstone and the
// ID itself both keep resolving) with its revision counter and warm hint
// restored. Compiled plans rebuild on first resolve.
//
//	POST /v1/migrate/sessions
func (s *server) handleMigrateSessions(w http.ResponseWriter, r *http.Request) {
	mgr := s.elastic
	if mgr == nil {
		s.fail(w, errElasticDisabled)
		return
	}
	if err := mgr.CheckEpoch(r); err != nil {
		s.fail(w, err)
		return
	}
	var req api.MigrateSessionsRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	body.release()
	adopted := 0
	for i := range req.Sessions {
		snap := &req.Sessions[i]
		if snap.ID == "" || snap.Spec == nil {
			continue
		}
		tree, err := repro.FromSpec(snap.Spec)
		if err != nil {
			continue
		}
		sess, err := s.cfg.Service.OpenSession(tree, snap.Defaults.Options()...)
		if err != nil {
			continue
		}
		var warm *repro.Assignment
		if len(snap.Warm) > 0 {
			if wa, err := api.AssignmentFromNames(tree, snap.Warm); err == nil {
				warm = wa
			}
		}
		sess.AdoptState(snap.Revision, warm)
		s.adoptSession(snap.ID, sess, snap.Defaults)
		adopted++
	}
	mgr.CountAdopted(adopted)
	writeJSON(w, http.StatusOK, &api.MigrateResponse{APIVersion: api.Version, Adopted: adopted})
}
