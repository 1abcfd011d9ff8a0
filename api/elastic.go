package api

import (
	"fmt"

	"repro"
)

// This file is the wire contract of the elastic membership layer: the
// member-admin request and the three migration push payloads. Pushes are
// internal node-to-node traffic, but they share the public DTO style so
// operators can replay or inspect them with curl.

// MembersUpdateRequest drives POST /v1/cluster/members. With Epoch 0 the
// receiver treats the list as a proposal and mints the next epoch itself
// (the operator path: curl a new seed list at any one node); a non-zero
// Epoch is an already-numbered view being relayed between nodes, adopted
// only if it is newer than the receiver's.
type MembersUpdateRequest struct {
	Epoch   uint64   `json:"epoch,omitempty"`
	Members []string `json:"members"`
}

// MembersUpdateResponse reports the view after the update.
type MembersUpdateResponse struct {
	APIVersion string   `json:"api_version"`
	Applied    bool     `json:"applied"` // false: the view was stale or duplicate
	Epoch      uint64   `json:"epoch"`
	Members    []string `json:"members"`
}

// MigratedResult is one warm result-cache entry in flight between nodes.
// The cache key is node-independent (fingerprint + normalized solve
// parameters), so it travels verbatim. The assignment travels as a
// canonical placement: one entry per pre-order position of the
// instance, -1 for the host, otherwise the satellite's rank by first
// appearance in pre-order. No tree travels; the adopter places and
// re-evaluates the assignment on each requester's own tree, as for any
// cross-tree cache hit. An entry without a placement — the spec and
// name-keyed assignment older nodes push — is not adopted, which costs
// only a cold solve.
type MigratedResult struct {
	Key        string  `json:"key"`
	Placement  []int32 `json:"placement"`
	Algorithm  string  `json:"algorithm"`
	Exact      bool    `json:"exact,omitempty"`
	LowerBound float64 `json:"lower_bound,omitempty"`
	Work       int     `json:"work,omitempty"`
	DP         bool    `json:"dp,omitempty"` // Work counts Pareto DP frontier points
	ElapsedUS  int64   `json:"elapsed_us,omitempty"`
}

// MigrateResultsRequest is the POST /v1/migrate/cache payload.
type MigrateResultsRequest struct {
	Entries []MigratedResult `json:"entries"`
}

// MigratedSession is one session snapshot in flight: the current tree,
// its revision counter, the solve defaults captured at open, and the
// last solved assignment as a warm hint. The adopter re-opens the
// session under the same ID; compiled plans and bound caches are rebuilt
// locally (they are derived state).
type MigratedSession struct {
	ID       string            `json:"id"`
	Spec     *repro.Spec       `json:"spec"`
	Revision int               `json:"revision"`
	Defaults SolveRequest      `json:"defaults"`
	Warm     map[string]string `json:"warm,omitempty"`
}

// MigrateSessionsRequest is the POST /v1/migrate/sessions payload.
type MigrateSessionsRequest struct {
	Sessions []MigratedSession `json:"sessions"`
}

// MigratedBound is one proven bound-cache entry: a subtree's Merkle hash
// and boundary context with its proven standalone optimum.
// Entries are never wrong — at worst they never match a hash again — so
// they migrate to any node that might re-solve overlapping instances.
type MigratedBound struct {
	Hash  string  `json:"hash"` // hex-encoded subtree Merkle hash
	Sats  int32   `json:"sats"`
	Bands int32   `json:"bands"`
	LB    float64 `json:"lb"`
}

// MigrateBoundsRequest is the POST /v1/migrate/bounds payload.
type MigrateBoundsRequest struct {
	Entries []MigratedBound `json:"entries"`
}

// MigrateResponse acknowledges a migration push.
type MigrateResponse struct {
	APIVersion string `json:"api_version"`
	Adopted    int    `json:"adopted"`
}

// AssignmentNames renders an assignment as the wire map of processing
// node name → "host" | satellite name (the SolveResponse form).
func AssignmentNames(t *repro.Tree, a *repro.Assignment) map[string]string {
	return assignmentNames(t, a)
}

// AssignmentFromNames is the inverse of AssignmentNames: it rebuilds an
// in-memory assignment on t from the wire map. Every processing node of
// t must be placed on "host" or a satellite name t knows.
func AssignmentFromNames(t *repro.Tree, placed map[string]string) (*repro.Assignment, error) {
	byName := make(map[string]repro.Location)
	byName["host"] = repro.Host
	for _, sat := range t.Satellites() {
		byName[sat.Name] = repro.OnSatellite(sat.ID)
	}
	a := repro.NewAssignment(t)
	for _, id := range t.Preorder() {
		n := t.Node(id)
		if n.IsLeaf() {
			continue // sensors are pinned; not part of the decision
		}
		where, ok := placed[n.Name]
		if !ok {
			return nil, fmt.Errorf("api: assignment misses node %q", n.Name)
		}
		loc, ok := byName[where]
		if !ok {
			return nil, fmt.Errorf("api: assignment places %q on unknown location %q", n.Name, where)
		}
		a.Set(id, loc)
	}
	return a, nil
}
