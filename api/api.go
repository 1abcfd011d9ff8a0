// Package api defines the versioned, transport-agnostic wire form of the
// solve service: JSON DTOs for requests and responses, a stable error
// model, and the conversions between the wire types and the in-process
// repro API. The tree travels as the existing Spec interchange form; the
// response carries the instance Fingerprint so clients can correlate,
// de-duplicate and cache results themselves.
//
// cmd/crserve serves these DTOs over HTTP under the /v1 prefix; any other
// transport (queue consumer, RPC layer) can embed the same types. The
// wire format is versioned by Version: breaking changes bump the path
// prefix and the constant together, and requests are decoded strictly
// (unknown fields are rejected) so client typos surface as
// ErrInvalidRequest rather than silently-ignored options.
package api

import (
	"fmt"
	"time"

	"repro"
)

// Version is the wire-format version implemented by this package. HTTP
// servers mount it as the path prefix (POST /v1/solve).
const Version = "v1"

// Weights is the wire form of the WS·S + WB·B objective coefficients.
type Weights struct {
	WS float64 `json:"ws"`
	WB float64 `json:"wb"`
}

// SolveRequest asks for the minimum-delay assignment of one instance.
// Spec is the tree in its JSON interchange form; every other field is
// optional and defaults to the server's solver configuration.
type SolveRequest struct {
	// Spec is the problem instance (required).
	Spec *repro.Spec `json:"spec"`
	// Algorithm names a registered solver; empty selects the server
	// default (the paper's adapted SSB).
	Algorithm string `json:"algorithm,omitempty"`
	// Weights overrides the objective coefficients (graph solvers only).
	Weights *Weights `json:"weights,omitempty"`
	// Seed seeds the randomised heuristics.
	Seed int64 `json:"seed,omitempty"`
	// Budget caps the exploration of the budgeted exact searches.
	Budget int `json:"budget,omitempty"`
	// TimeoutMS bounds this solve in milliseconds; the server may clamp
	// it to its own ceiling.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Validate reports whether the request is well-formed at the wire level
// (tree validity is checked separately when the Spec is built).
func (r *SolveRequest) Validate() error {
	if r == nil || r.Spec == nil {
		return &Error{Code: CodeInvalidRequest, Message: "missing spec"}
	}
	if r.TimeoutMS < 0 {
		return &Error{Code: CodeInvalidRequest, Message: "negative timeout_ms"}
	}
	if r.Budget < 0 {
		return &Error{Code: CodeInvalidRequest, Message: "negative budget"}
	}
	return nil
}

// Options converts the request's parameters into solver options, to be
// applied over the serving Solver's defaults.
func (r *SolveRequest) Options() []repro.Option {
	var opts []repro.Option
	if r.Algorithm != "" {
		opts = append(opts, repro.WithAlgorithm(repro.Algorithm(r.Algorithm)))
	}
	if r.Weights != nil {
		opts = append(opts, repro.WithWeights(repro.Weights{WS: r.Weights.WS, WB: r.Weights.WB}))
	}
	if r.Seed != 0 {
		opts = append(opts, repro.WithSeed(r.Seed))
	}
	if r.Budget != 0 {
		opts = append(opts, repro.WithBudget(r.Budget))
	}
	if r.TimeoutMS != 0 {
		opts = append(opts, repro.WithTimeout(time.Duration(r.TimeoutMS)*time.Millisecond))
	}
	return opts
}

// Tree builds and validates the instance. Failures are returned as
// *Error with CodeInvalidRequest (malformed spec) so transports can
// serialise them directly.
func (r *SolveRequest) Tree() (*repro.Tree, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	t, err := repro.FromSpec(r.Spec)
	if err != nil {
		return nil, &Error{Code: CodeInvalidRequest, Message: err.Error()}
	}
	return t, nil
}

// Breakdown is the wire form of the delay breakdown, with satellites
// reported by name.
type Breakdown struct {
	HostTime   float64            `json:"host_time"`
	MaxSatLoad float64            `json:"max_sat_load"`
	Bottleneck string             `json:"bottleneck,omitempty"`
	SatLoads   map[string]float64 `json:"sat_loads,omitempty"`
}

// SearchStats is the wire form of a graph-based solver's run report.
type SearchStats struct {
	Iterations int  `json:"iterations"`
	Expansions int  `json:"expansions"`
	SuperEdges int  `json:"super_edges"`
	FinalEdges int  `json:"final_edges"`
	FellBack   bool `json:"fell_back,omitempty"`
}

// SolveResponse is the result of one solve. Assignment maps each
// processing CRU's name to "host" or the satellite name it executes on
// (sensors are omitted: they are pinned to their satellites).
type SolveResponse struct {
	APIVersion  string            `json:"api_version"`
	Fingerprint string            `json:"fingerprint"`
	Algorithm   string            `json:"algorithm"`
	Delay       float64           `json:"delay"`
	Exact       bool              `json:"exact"`
	Cached      bool              `json:"cached"`
	Assignment  map[string]string `json:"assignment"`
	Breakdown   *Breakdown        `json:"breakdown,omitempty"`
	Stats       *SearchStats      `json:"stats,omitempty"`
	Work        int               `json:"work,omitempty"`
	ElapsedUS   int64             `json:"elapsed_us"`
	// Partial marks a best-effort anytime result: feasible, not proven
	// optimal (the deadline or budget expired first).
	Partial bool `json:"partial,omitempty"`
	// LowerBound is the solver's proof floor on the optimal delay, when
	// one exists; a completed exact solve reports its own delay.
	LowerBound float64 `json:"lower_bound,omitempty"`
}

// NewSolveResponse converts an Outcome into its wire form. status is the
// serving layer's cache classification: hits report Cached=true, while a
// shared in-flight result reports false (the solve did run, just once for
// several callers).
func NewSolveResponse(t *repro.Tree, out *repro.Outcome, status repro.CacheStatus) *SolveResponse {
	resp := &SolveResponse{
		APIVersion:  Version,
		Fingerprint: repro.Fingerprint(t),
		Algorithm:   string(out.Algorithm),
		Delay:       out.Delay,
		Exact:       out.Exact,
		Cached:      status == repro.CacheHit,
		Assignment:  assignmentNames(t, out.Assignment),
		Work:        out.Work,
		ElapsedUS:   out.Elapsed.Microseconds(),
		Partial:     out.Partial,
		LowerBound:  out.LowerBound,
	}
	if bd := out.Breakdown; bd != nil {
		wire := &Breakdown{HostTime: bd.HostTime, MaxSatLoad: bd.MaxSatLoad}
		if len(bd.SatLoad) > 0 {
			wire.SatLoads = make(map[string]float64, len(bd.SatLoad))
			for sat, load := range bd.SatLoad {
				wire.SatLoads[t.SatelliteName(sat)] = load
			}
		}
		if bd.Bottleneck >= 0 {
			wire.Bottleneck = t.SatelliteName(bd.Bottleneck)
		}
		resp.Breakdown = wire
	}
	if st := out.Stats; st != nil {
		resp.Stats = &SearchStats{
			Iterations: st.Iterations, Expansions: st.Expansions,
			SuperEdges: st.SuperEdges, FinalEdges: st.FinalEdges,
			FellBack: st.FellBack,
		}
	}
	return resp
}

func assignmentNames(t *repro.Tree, a *repro.Assignment) map[string]string {
	if a == nil {
		return nil
	}
	placed := make(map[string]string)
	for _, id := range t.Preorder() {
		n := t.Node(id)
		if n.IsLeaf() {
			continue // sensors are pinned; not part of the decision
		}
		loc := "host"
		if sat, onSat := a.At(id).Satellite(); onSat {
			loc = t.SatelliteName(sat)
		}
		placed[n.Name] = loc
	}
	return placed
}

// BatchRequest solves many instances in one round trip. Items are
// independent: each carries its own spec and parameters, and failures are
// isolated per item in the response.
type BatchRequest struct {
	Items []SolveRequest `json:"items"`
}

// BatchItem is one BatchRequest item's result: exactly one of Response
// and Error is set.
type BatchItem struct {
	Response *SolveResponse `json:"response,omitempty"`
	Error    *Error         `json:"error,omitempty"`
}

// BatchResponse carries one BatchItem per request item, in input order.
type BatchResponse struct {
	APIVersion string      `json:"api_version"`
	Items      []BatchItem `json:"items"`
}

// SimulateRequest solves an instance and replays the winning assignment
// on the discrete-event testbed.
type SimulateRequest struct {
	SolveRequest
	// Mode selects the timing model: "paper-barrier" (default) or
	// "overlapped".
	Mode string `json:"mode,omitempty"`
	// Frames is the number of frames to push through (default 1).
	Frames int `json:"frames,omitempty"`
	// Interval is the inter-arrival time between frames (0 = all at t=0).
	Interval float64 `json:"interval,omitempty"`
}

// SimConfig converts the wire fields into a simulator configuration and
// returns the canonical mode name that will run — responses echo it, so
// a client that relied on the default still learns which timing model
// produced its numbers.
func (r *SimulateRequest) SimConfig() (repro.SimConfig, string, error) {
	cfg := repro.SimConfig{Frames: r.Frames, Interval: r.Interval}
	mode := r.Mode
	switch mode {
	case "", "paper-barrier":
		cfg.Mode = repro.PaperBarrier
		mode = "paper-barrier"
	case "overlapped":
		cfg.Mode = repro.Overlapped
	default:
		return cfg, "", &Error{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("unknown simulation mode %q", r.Mode),
			Details: map[string]string{"known": "paper-barrier, overlapped"}}
	}
	if r.Frames < 0 || r.Interval < 0 {
		return cfg, "", &Error{Code: CodeInvalidRequest, Message: "negative frames or interval"}
	}
	return cfg, mode, nil
}

// SimulateResponse reports the simulated replay next to the analytic
// solve it was derived from.
type SimulateResponse struct {
	APIVersion  string  `json:"api_version"`
	Fingerprint string  `json:"fingerprint"`
	Algorithm   string  `json:"algorithm"`
	Delay       float64 `json:"delay"` // analytic objective of the assignment
	Cached      bool    `json:"cached"`
	Mode        string  `json:"mode"`
	Frames      int     `json:"frames"`
	Makespan    float64 `json:"makespan"`
	Throughput  float64 `json:"throughput"`
	BusyHost    float64 `json:"busy_host"`
}

// AlgorithmInfo is the wire form of one registry entry.
type AlgorithmInfo struct {
	Name      string `json:"name"`
	Exact     bool   `json:"exact"`
	Budget    bool   `json:"budget"`
	Seeded    bool   `json:"seeded"`
	Weighted  bool   `json:"weighted"`
	WarmStart bool   `json:"warm_start"`
	Anytime   bool   `json:"anytime"`
	Summary   string `json:"summary,omitempty"`
}

// AlgorithmsResponse lists the registered solvers, exact ones first.
type AlgorithmsResponse struct {
	APIVersion string          `json:"api_version"`
	Algorithms []AlgorithmInfo `json:"algorithms"`
}

// ListAlgorithms snapshots the registry into its wire form.
func ListAlgorithms() *AlgorithmsResponse {
	resp := &AlgorithmsResponse{APIVersion: Version}
	for _, name := range repro.Algorithms() {
		caps, _ := repro.Capability(name)
		resp.Algorithms = append(resp.Algorithms, AlgorithmInfo{
			Name: string(name), Exact: caps.Exact, Budget: caps.Budget,
			Seeded: caps.Seeded, Weighted: caps.Weighted,
			WarmStart: caps.WarmStart, Anytime: caps.Anytime, Summary: caps.Summary,
		})
	}
	return resp
}
