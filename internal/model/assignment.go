package model

import (
	"fmt"
	"sort"
	"strings"
)

// Location says where a CRU executes: on the host or on one satellite.
// The zero value is the host, so a zero-filled assignment is the valid
// everything-on-host assignment.
type Location struct {
	sat SatelliteID // NoSatellite-1 shifted encoding: 0 == host
}

// Host is the Location of the host machine.
var Host = Location{sat: 0}

// OnSatellite returns the Location of the given satellite.
func OnSatellite(id SatelliteID) Location { return Location{sat: id + 1} }

// IsHost reports whether the location is the host.
func (l Location) IsHost() bool { return l.sat == 0 }

// Satellite returns the satellite of a non-host location; ok is false for
// the host.
func (l Location) Satellite() (SatelliteID, bool) {
	if l.sat == 0 {
		return NoSatellite, false
	}
	return l.sat - 1, true
}

// String implements fmt.Stringer.
func (l Location) String() string {
	if l.IsHost() {
		return "host"
	}
	s, _ := l.Satellite()
	return fmt.Sprintf("sat(%d)", s)
}

// Assignment places every node of one Tree onto a Location. Sensors are
// always implicitly located on their physical satellite; their entries exist
// for uniformity and are forced by Normalize/Validate.
type Assignment struct {
	Loc []Location // indexed by NodeID
}

// NewAssignment returns an everything-on-host assignment for t (sensors
// pinned to their satellites).
func NewAssignment(t *Tree) *Assignment {
	a := &Assignment{Loc: make([]Location, t.Len())}
	for _, leaf := range t.Leaves() {
		a.Loc[leaf] = OnSatellite(t.Node(leaf).Satellite)
	}
	return a
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{Loc: append([]Location(nil), a.Loc...)}
}

// Set places node id at loc.
func (a *Assignment) Set(id NodeID, loc Location) { a.Loc[id] = loc }

// At returns the location of node id.
func (a *Assignment) At(id NodeID) Location { return a.Loc[id] }

// HostSet returns the IDs of processing CRUs placed on the host, in
// pre-order of t.
func (a *Assignment) HostSet(t *Tree) []NodeID {
	var out []NodeID
	for _, id := range t.Preorder() {
		if t.Node(id).Kind == Processing && a.Loc[id].IsHost() {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks that the assignment is feasible for t:
//
//  1. every sensor sits on its physical satellite;
//  2. the root is on the host (the context-aware application runs there);
//  3. the host set is closed upwards: a CRU on the host never has an
//     ancestor on a satellite (context flows satellites -> host only);
//  4. a node on a satellite (sensors included) has its parent on the
//     host or on the same satellite.
//
// Rules 3+4 imply each satellite executes a union of disjoint subtrees,
// exactly the cuts the assignment graph encodes; with rule 1, every
// satellite-resident CRU sits on its correspondent satellite. The check
// reads parent links only, so it never compiles t.
func (a *Assignment) Validate(t *Tree) error {
	if len(a.Loc) != t.Len() {
		return fmt.Errorf("model: assignment covers %d nodes, tree has %d", len(a.Loc), t.Len())
	}
	if !a.Loc[t.Root()].IsHost() {
		return fmt.Errorf("model: root %q must be on the host", t.Node(t.Root()).Name)
	}
	for _, id := range t.Preorder() {
		n := t.Node(id)
		loc := a.Loc[id]
		if n.Kind == SensorKind && loc != OnSatellite(n.Satellite) {
			return fmt.Errorf("model: sensor %q must stay on satellite %s, got %v",
				n.Name, t.SatelliteName(n.Satellite), loc)
		}
		p := n.Parent
		if p == None || a.Loc[p].IsHost() || loc == a.Loc[p] {
			continue
		}
		if loc.IsHost() {
			// Context would have to flow host -> satellite, which the
			// model forbids.
			return fmt.Errorf("model: CRU %q on host below satellite-resident parent %q", n.Name, t.Node(p).Name)
		}
		sat, _ := loc.Satellite()
		psat, _ := a.Loc[p].Satellite()
		return fmt.Errorf("model: %v %q on %s under parent %q on %s",
			n.Kind, n.Name, t.SatelliteName(sat), t.Node(p).Name, t.SatelliteName(psat))
	}
	return nil
}

// CutEdges returns the tree edges (parent, child) whose parent side is on
// the host while the child side is on a satellite — the communication cut of
// the assignment. Sensor edges whose parent CRU is on the host are included
// (raw frames must be uplinked). Edges are reported in pre-order of the
// child.
func (a *Assignment) CutEdges(t *Tree) [][2]NodeID {
	var out [][2]NodeID
	for _, id := range t.Preorder() {
		p := t.Node(id).Parent
		if p == None {
			continue
		}
		if a.Loc[p].IsHost() && !a.Loc[id].IsHost() {
			out = append(out, [2]NodeID{p, id})
		}
	}
	return out
}

// Key returns a canonical string form, useful for de-duplication in tests
// and search frontiers.
func (a *Assignment) Key() string {
	var b strings.Builder
	for i, l := range a.Loc {
		if i > 0 {
			b.WriteByte(',')
		}
		if l.IsHost() {
			b.WriteByte('h')
		} else {
			s, _ := l.Satellite()
			fmt.Fprintf(&b, "%d", s)
		}
	}
	return b.String()
}

// Describe renders a human-readable multi-line description grouped by
// location.
func (a *Assignment) Describe(t *Tree) string {
	groups := map[string][]string{}
	for _, id := range t.Preorder() {
		n := t.Node(id)
		if n.Kind != Processing {
			continue
		}
		key := "host"
		if s, onSat := a.Loc[id].Satellite(); onSat {
			key = "satellite " + t.SatelliteName(s)
		}
		groups[key] = append(groups[key], n.Name)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-14s %s\n", k+":", strings.Join(groups[k], " "))
	}
	return b.String()
}
