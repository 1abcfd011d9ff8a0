package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/pool"
)

// Breakdown itemises the delay of one assignment.
type Breakdown struct {
	HostTime   float64                       // Σ h_i over host CRUs
	SatLoad    map[model.SatelliteID]float64 // per satellite: Σ s_i + Σ comm
	SatProc    map[model.SatelliteID]float64 // processing part only
	SatComm    map[model.SatelliteID]float64 // communication part only
	Bottleneck model.SatelliteID             // satellite attaining MaxSatLoad (NoSatellite if none)
	MaxSatLoad float64                       // max over satellites of SatLoad
	Delay      float64                       // HostTime + MaxSatLoad
	CutEdges   [][2]model.NodeID             // host→satellite crossings (parent, child)
}

// Evaluate validates the assignment and computes its delay breakdown.
// The breakdown is the reporting form (itemised maps, cut edges); hot
// loops use Delay or the Frame-based flat kernel instead.
//
// It is one pre-order walk over the tree into pooled satellite-indexed
// accumulators, replaying evaluatePointer's additions in the same order,
// so the two agree bit for bit. The walk reads the tree, not its compiled
// plan: cache hits re-evaluate on fresh trees that were never compiled.
func Evaluate(t *model.Tree, a *model.Assignment) (*Breakdown, error) {
	if err := a.Validate(t); err != nil {
		return nil, err
	}
	sc := breakdowns.Get()
	defer breakdowns.Put(sc)
	nsat := len(t.Satellites())
	proc := pool.Slice(sc.proc, nsat)
	comm := pool.Slice(sc.comm, nsat)
	hasProc := pool.Slice(sc.hasProc, nsat)
	hasComm := pool.Slice(sc.hasComm, nsat)
	cuts := sc.cuts[:0]
	var host float64
	for _, id := range t.Preorder() {
		n := t.Node(id)
		sat, onSat := a.Loc[id].Satellite()
		if n.Kind == model.Processing {
			if !onSat {
				host += n.HostTime
			} else {
				proc[sat] += n.SatTime
				hasProc[sat] = true
			}
		}
		if onSat && n.Parent != model.None && a.Loc[n.Parent].IsHost() {
			comm[sat] += n.UpComm
			hasComm[sat] = true
			cuts = append(cuts, [2]model.NodeID{n.Parent, id})
		}
	}
	sc.proc, sc.comm, sc.hasProc, sc.hasComm, sc.cuts = proc, comm, hasProc, hasComm, cuts

	nproc, ncomm, nload := 0, 0, 0
	for s := range nsat {
		if hasProc[s] {
			nproc++
		}
		if hasComm[s] {
			ncomm++
		}
		if hasProc[s] || hasComm[s] {
			nload++
		}
	}
	b := &Breakdown{
		HostTime:   host,
		SatLoad:    make(map[model.SatelliteID]float64, nload),
		SatProc:    make(map[model.SatelliteID]float64, nproc),
		SatComm:    make(map[model.SatelliteID]float64, ncomm),
		Bottleneck: model.NoSatellite,
	}
	if len(cuts) > 0 {
		b.CutEdges = make([][2]model.NodeID, len(cuts))
		copy(b.CutEdges, cuts)
	}
	// Ascending satellite order meets evaluatePointer's tie rule (lowest
	// id among equal maxima) without its map-order comparison.
	for s := range nsat {
		if !hasProc[s] && !hasComm[s] {
			continue
		}
		sat := model.SatelliteID(s)
		var load float64
		if hasProc[s] {
			b.SatProc[sat] = proc[s]
			load += proc[s]
		}
		if hasComm[s] {
			b.SatComm[sat] = comm[s]
			load += comm[s]
		}
		b.SatLoad[sat] = load
		if load > b.MaxSatLoad || (load == b.MaxSatLoad && b.Bottleneck == model.NoSatellite) {
			b.MaxSatLoad = load
			b.Bottleneck = sat
		}
	}
	b.Delay = b.HostTime + b.MaxSatLoad
	return b, nil
}

// breakdownScratch is Evaluate's pooled scratch: per-satellite
// accumulators and presence marks, and the cut-edge buffer the exact-
// length CutEdges is copied from.
type breakdownScratch struct {
	proc, comm       []float64
	hasProc, hasComm []bool
	cuts             [][2]model.NodeID
}

var breakdowns = pool.NewArena(func() *breakdownScratch { return new(breakdownScratch) })

// Delay is Evaluate reduced to the scalar objective. It validates the
// assignment, then runs the flat kernel over the tree's compiled plan
// with pooled scratch — no per-call allocation after warm-up.
func Delay(t *model.Tree, a *model.Assignment) (float64, error) {
	if err := a.Validate(t); err != nil {
		return 0, err
	}
	c := model.Compile(t)
	f := frames.Get()
	d := AssignmentDelay(c, a, f)
	frames.Put(f)
	return d, nil
}

// MustDelay panics on invalid assignments; for use with solver outputs that
// are validated by construction.
func MustDelay(t *model.Tree, a *model.Assignment) float64 {
	d, err := Delay(t, a)
	if err != nil {
		panic(fmt.Sprintf("eval: solver produced invalid assignment: %v", err))
	}
	return d
}

// PointerDelay is the pointer-walking reference evaluation: node structs,
// per-satellite maps, no compiled plan. It is retained as the independent
// implementation the flat kernel is parity-tested against (the two are
// bit-identical: the flat sweep replays the same additions in the same
// pre-order) and as the baseline of BenchmarkCompiledVsPointer. The
// assignment must be feasible.
func PointerDelay(t *model.Tree, a *model.Assignment) float64 {
	return evaluatePointer(t, a).Delay
}

// Frame is the pooled scratch of the flat evaluation kernel: one
// per-satellite accumulator pair, checked out per solve and reused across
// every evaluation inside it.
type Frame struct {
	satProc, satComm []float64
}

var frames = pool.NewArena(func() *Frame { return new(Frame) })

// GetFrame checks a Frame out of the shared arena.
func GetFrame() *Frame { return frames.Get() }

// PutFrame returns a Frame to the shared arena.
func PutFrame(f *Frame) { frames.Put(f) }

// FlatDelay computes the delay of a feasible position-indexed location
// vector against the compiled plan, with zero allocation. The sweep runs
// in pre-order and keeps processing and communication accumulators apart,
// replaying the pointer walk's floating-point operations exactly, so
// FlatDelay and PointerDelay agree to the last bit.
func FlatDelay(c *model.Compiled, loc []model.Location, f *Frame) float64 {
	host, load := FlatParts(c, loc, f)
	return host + load
}

// FlatParts is FlatDelay split into its two terms: the host time and the
// bottleneck satellite load, for objectives that weight them apart.
func FlatParts(c *model.Compiled, loc []model.Location, f *Frame) (host, maxLoad float64) {
	f.satProc = pool.Slice(f.satProc, c.NumSats)
	f.satComm = pool.Slice(f.satComm, c.NumSats)
	for _, p := range c.Pre {
		l := loc[p]
		if c.Proc[p] {
			if l.IsHost() {
				host += c.HostTime[p]
			} else if sat, ok := l.Satellite(); ok {
				f.satProc[sat] += c.SatTime[p]
			}
		}
		if par := c.Parent[p]; par >= 0 && loc[par].IsHost() && !l.IsHost() {
			sat, _ := l.Satellite()
			f.satComm[sat] += c.UpComm[p]
		}
	}
	return host, f.maxLoad()
}

// AssignmentDelay is FlatDelay for a NodeID-indexed assignment: the same
// flat sweep, reading locations through the post-order permutation.
func AssignmentDelay(c *model.Compiled, a *model.Assignment, f *Frame) float64 {
	f.satProc = pool.Slice(f.satProc, c.NumSats)
	f.satComm = pool.Slice(f.satComm, c.NumSats)
	var host float64
	for _, p := range c.Pre {
		l := a.Loc[c.Post[p]]
		if c.Proc[p] {
			if l.IsHost() {
				host += c.HostTime[p]
			} else if sat, ok := l.Satellite(); ok {
				f.satProc[sat] += c.SatTime[p]
			}
		}
		if par := c.Parent[p]; par >= 0 && a.Loc[c.Post[par]].IsHost() && !l.IsHost() {
			sat, _ := l.Satellite()
			f.satComm[sat] += c.UpComm[p]
		}
	}
	return host + f.maxLoad()
}

// maxLoad returns the bottleneck satellite load of the accumulated sweep.
// Satellites the sweep never touched hold 0, which can never exceed a
// touched satellite's non-negative load, so the maximum matches the
// pointer walk's max over its sparse maps.
func (f *Frame) maxLoad() float64 {
	var b float64
	for s := range f.satProc {
		if v := f.satProc[s] + f.satComm[s]; v > b {
			b = v
		}
	}
	return b
}

// evaluatePointer is the pointer-based breakdown walk (the original
// implementation): it itemises per-satellite loads into maps and gathers
// the cut edges. It is the reference Evaluate and the flat kernel are
// parity-tested against.
func evaluatePointer(t *model.Tree, a *model.Assignment) *Breakdown {
	b := &Breakdown{
		SatLoad:    map[model.SatelliteID]float64{},
		SatProc:    map[model.SatelliteID]float64{},
		SatComm:    map[model.SatelliteID]float64{},
		Bottleneck: model.NoSatellite,
	}
	for _, id := range t.Preorder() {
		n := t.Node(id)
		loc := a.At(id)
		if n.Kind == model.Processing {
			if loc.IsHost() {
				b.HostTime += n.HostTime
			} else if sat, ok := loc.Satellite(); ok {
				b.SatProc[sat] += n.SatTime
			}
		}
		// Communication: edges crossing from a host parent into a
		// satellite-resident child (processing results or raw frames must
		// travel the satellite's uplink).
		if n.Parent != model.None && a.At(n.Parent).IsHost() && !loc.IsHost() {
			sat, _ := loc.Satellite()
			b.SatComm[sat] += n.UpComm
			b.CutEdges = append(b.CutEdges, [2]model.NodeID{n.Parent, id})
		}
	}
	for sat := range b.SatProc {
		b.SatLoad[sat] += b.SatProc[sat]
	}
	for sat := range b.SatComm {
		b.SatLoad[sat] += b.SatComm[sat]
	}
	for sat, load := range b.SatLoad {
		if load > b.MaxSatLoad || (load == b.MaxSatLoad && (b.Bottleneck == model.NoSatellite || sat < b.Bottleneck)) {
			b.MaxSatLoad = load
			b.Bottleneck = sat
		}
	}
	b.Delay = b.HostTime + b.MaxSatLoad
	return b
}

// Report renders the breakdown for CLIs and experiment tables.
func (b *Breakdown) Report(t *model.Tree) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "host processing: %.4g\n", b.HostTime)
	sats := make([]model.SatelliteID, 0, len(b.SatLoad))
	for sat := range b.SatLoad {
		sats = append(sats, sat)
	}
	sort.Slice(sats, func(i, j int) bool { return sats[i] < sats[j] })
	for _, sat := range sats {
		mark := ""
		if sat == b.Bottleneck {
			mark = "  <- bottleneck"
		}
		fmt.Fprintf(&sb, "satellite %-10s proc %.4g + comm %.4g = %.4g%s\n",
			t.SatelliteName(sat), b.SatProc[sat], b.SatComm[sat], b.SatLoad[sat], mark)
	}
	fmt.Fprintf(&sb, "end-to-end delay: %.6g\n", b.Delay)
	return sb.String()
}
