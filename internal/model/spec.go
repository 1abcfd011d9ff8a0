package model

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Spec is the on-disk JSON representation of a problem instance. It is the
// interchange format of the cmd/* tools:
//
//	{
//	  "name": "epilepsy",
//	  "satellites": ["box-1", "box-2"],
//	  "crus": [
//	    {"name": "fuse", "host_time": 4},
//	    {"name": "ecg", "parent": "fuse", "host_time": 2, "sat_time": 3, "comm": 1}
//	  ],
//	  "sensors": [
//	    {"name": "ecg-probe", "parent": "ecg", "satellite": "box-1", "comm": 0.5}
//	  ]
//	}
//
// CRUs must appear after their parent (the natural order when writing specs
// by hand); FromSpec reports a clear error otherwise.
type Spec struct {
	Name       string       `json:"name,omitempty"`
	Satellites []string     `json:"satellites"`
	CRUs       []SpecCRU    `json:"crus"`
	Sensors    []SpecSensor `json:"sensors"`
}

// SpecCRU is one processing CRU row of a Spec.
type SpecCRU struct {
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"` // empty for the root
	HostTime float64 `json:"host_time"`
	SatTime  float64 `json:"sat_time,omitempty"`
	Comm     float64 `json:"comm,omitempty"` // c_{this,parent}
}

// SpecSensor is one sensor row of a Spec.
type SpecSensor struct {
	Name      string  `json:"name"`
	Parent    string  `json:"parent"`
	Satellite string  `json:"satellite"`
	Comm      float64 `json:"comm,omitempty"` // c_{s,parent}
}

// FromSpec builds and validates a Tree from a Spec. Its name indexes are
// pooled and cleared on every return, errors included.
func FromSpec(s *Spec) (*Tree, error) {
	sc := builds.Get()
	defer func() {
		clear(sc.sats)
		clear(sc.names)
		builds.Put(sc)
	}()
	rows := len(s.CRUs) + len(s.Sensors)
	b := &Builder{
		nodes:      make([]Node, 0, rows),
		satellites: make([]Satellite, 0, len(s.Satellites)),
	}
	sats, ids := sc.sats, sc.names
	for _, name := range s.Satellites {
		if _, dup := sats[name]; dup {
			return nil, fmt.Errorf("model: duplicate satellite %q", name)
		}
		sats[name] = b.Satellite(name)
	}
	for i, c := range s.CRUs {
		if c.Name == "" {
			return nil, fmt.Errorf("model: cru #%d has no name", i)
		}
		if _, dup := ids[c.Name]; dup {
			return nil, fmt.Errorf("model: duplicate node name %q", c.Name)
		}
		if c.Parent == "" {
			ids[c.Name] = b.Root(c.Name, c.HostTime, c.SatTime)
			continue
		}
		p, ok := ids[c.Parent]
		if !ok {
			return nil, fmt.Errorf("model: cru %q references parent %q before it is defined", c.Name, c.Parent)
		}
		ids[c.Name] = b.Child(p, c.Name, c.HostTime, c.SatTime, c.Comm)
	}
	for i, sn := range s.Sensors {
		if sn.Name == "" {
			return nil, fmt.Errorf("model: sensor #%d has no name", i)
		}
		if _, dup := ids[sn.Name]; dup {
			return nil, fmt.Errorf("model: duplicate node name %q", sn.Name)
		}
		p, ok := ids[sn.Parent]
		if !ok {
			return nil, fmt.Errorf("model: sensor %q references unknown parent %q", sn.Name, sn.Parent)
		}
		sat, ok := sats[sn.Satellite]
		if !ok {
			return nil, fmt.Errorf("model: sensor %q references unknown satellite %q", sn.Name, sn.Satellite)
		}
		ids[sn.Name] = b.Sensor(p, sn.Name, sat, sn.Comm)
	}
	return b.Build()
}

// ToSpec converts a Tree back into its Spec form (round-trips with FromSpec
// up to node ordering, which is preserved as pre-order).
func ToSpec(t *Tree, name string) *Spec {
	s := &Spec{Name: name}
	for _, sat := range t.Satellites() {
		s.Satellites = append(s.Satellites, sat.Name)
	}
	for _, id := range t.Preorder() {
		n := t.Node(id)
		parent := ""
		if n.Parent != None {
			parent = t.Node(n.Parent).Name
		}
		switch n.Kind {
		case SensorKind:
			s.Sensors = append(s.Sensors, SpecSensor{
				Name: n.Name, Parent: parent,
				Satellite: t.SatelliteName(n.Satellite), Comm: n.UpComm,
			})
		default:
			s.CRUs = append(s.CRUs, SpecCRU{
				Name: n.Name, Parent: parent,
				HostTime: n.HostTime, SatTime: n.SatTime, Comm: n.UpComm,
			})
		}
	}
	return s
}

// ReadSpec decodes a Spec from JSON and builds the tree.
func ReadSpec(r io.Reader) (*Tree, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("model: decoding spec: %w", err)
	}
	return FromSpec(&s)
}

// WriteSpec encodes t as indented JSON.
func WriteSpec(w io.Writer, t *Tree, name string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToSpec(t, name))
}

// DOT renders the tree in Graphviz DOT syntax, colouring sensors by
// satellite, for quick visual inspection of generated workloads.
func DOT(t *Tree, title string) string {
	palette := []string{"indianred", "gold", "steelblue", "seagreen", "orchid", "sienna", "turquoise", "slategray"}
	out := fmt.Sprintf("digraph %q {\n  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n", title)
	for _, id := range t.Preorder() {
		n := t.Node(id)
		switch n.Kind {
		case SensorKind:
			colour := palette[int(n.Satellite)%len(palette)]
			out += fmt.Sprintf("  n%d [label=\"%s\\n@%s\", shape=ellipse, style=filled, fillcolor=%s];\n",
				id, n.Name, t.SatelliteName(n.Satellite), colour)
		default:
			out += fmt.Sprintf("  n%d [label=\"%s\\nh=%.3g s=%.3g\"];\n", id, n.Name, n.HostTime, n.SatTime)
		}
	}
	// Emit edges parent -> child with the upward comm cost as label.
	edges := t.Edges()
	sort.Slice(edges, func(i, j int) bool { return edges[i][1] < edges[j][1] })
	for _, e := range edges {
		out += fmt.Sprintf("  n%d -> n%d [label=\"%.3g\"];\n", e[0], e[1], t.Node(e[1]).UpComm)
	}
	return out + "}\n"
}
