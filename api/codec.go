package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro"
)

// This file is the solve path's hand-written JSON codec. It reads and
// writes exactly the bytes encoding/json would, without reflection or
// intermediate copies of the body; every other endpoint keeps
// encoding/json.

// DecodeSolveRequest decodes body into r when body is in the canonical
// subset of JSON that encoding/json itself produces for a SolveRequest:
// one object with exact lower-case keys and no duplicates, strings without
// backslash escapes, numbers that parse as their field's type, no nulls,
// and nothing but whitespace after the value. It reports false, leaving r
// untouched, on anything else; the caller then decodes with encoding/json,
// so the accepted requests and every error message are the ones
// json.Decoder with DisallowUnknownFields gives.
//
// The decoded strings share one string allocated per call, never the
// memory of body: a tree built from the request keeps its node names for
// as long as it is cached.
func DecodeSolveRequest(body []byte, r *SolveRequest) bool {
	d := decoders.Get().(*decoder)
	defer d.release()
	d.buf, d.pos, d.bad = body, 0, false
	d.request()
	d.space()
	if d.bad || d.pos != len(d.buf) {
		return false
	}
	d.build(r)
	return true
}

// DecodeStrict decodes body into v the way the server decodes every
// request body it cannot take on a fast path: with encoding/json, unknown
// fields rejected, and nothing but whitespace allowed after the value.
func DecodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}

// span locates one decoded string in decoder.arena.
type span struct{ off, end int }

type cruRow struct {
	name, parent    span
	host, sat, comm float64
}

type sensorRow struct {
	name, parent, sat span
	comm              float64
}

// decoder holds one request's parse: the strings' bytes in arena and the
// spec's rows, so that build allocates each result slice once at its
// final size.
type decoder struct {
	buf []byte
	pos int
	bad bool

	arena   []byte
	sats    []span
	crus    []cruRow
	sensors []sensorRow

	req requestRow
}

// requestRow is the parse of everything in a request but the spec's
// arrays; the has fields record which optional members were present.
type requestRow struct {
	algorithm, name              span
	weights                      Weights
	seed, timeoutMS              int64
	budget                       int
	hasWeights, hasSpec          bool
	hasSats, hasCRUs, hasSensors bool
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// maxPooledRows bounds what a pooled decoder keeps between requests: the
// rows of an unusually large spec are left to the garbage collector.
const maxPooledRows = 1 << 12

func (d *decoder) release() {
	if cap(d.crus) > maxPooledRows || cap(d.sensors) > maxPooledRows ||
		cap(d.sats) > maxPooledRows || cap(d.arena) > 64*maxPooledRows {
		return
	}
	d.buf = nil
	d.arena, d.sats, d.crus, d.sensors = d.arena[:0], d.sats[:0], d.crus[:0], d.sensors[:0]
	d.req = requestRow{}
	decoders.Put(d)
}

// fail stops the scan: every later read sees the end of the input.
func (d *decoder) fail() {
	d.bad = true
	d.pos = len(d.buf)
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// open consumes the opening delimiter c ('{' or '[') and reports whether
// a member follows; an empty container is consumed whole.
func (d *decoder) open(c byte) bool {
	d.space()
	if d.pos >= len(d.buf) || d.buf[d.pos] != c {
		d.fail()
		return false
	}
	d.pos++
	d.space()
	if d.pos < len(d.buf) && d.buf[d.pos] == c+2 { // '{'+2 is '}', '['+2 is ']'
		d.pos++
		return false
	}
	return true
}

// next consumes the separator after a member and reports whether another
// member follows, consuming the closing delimiter end if not.
func (d *decoder) next(end byte) bool {
	d.space()
	if d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ',':
			d.pos++
			return true
		case end:
			d.pos++
			return false
		}
	}
	d.fail()
	return false
}

// key consumes an object key and its colon and returns the key's bytes.
func (d *decoder) key() []byte {
	k := d.raw()
	d.space()
	if d.pos >= len(d.buf) || d.buf[d.pos] != ':' {
		d.fail()
		return nil
	}
	d.pos++
	return k
}

// raw consumes a string without escapes and returns its contents.
func (d *decoder) raw() []byte {
	d.space()
	if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
		d.fail()
		return nil
	}
	start := d.pos + 1
	ascii := true
	for i := start; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			s := d.buf[start:i]
			if !ascii && !utf8.Valid(s) {
				// encoding/json replaces invalid bytes with U+FFFD.
				d.fail()
				return nil
			}
			return s
		case c == '\\' || c < ' ':
			d.fail()
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.fail()
	return nil
}

// str consumes a string value and copies it into the arena.
func (d *decoder) str() span {
	s := d.raw()
	off := len(d.arena)
	d.arena = append(d.arena, s...)
	return span{off, len(d.arena)}
}

// number consumes a number that matches the JSON grammar and returns its
// text.
func (d *decoder) number() []byte {
	d.space()
	b, start := d.buf, d.pos
	i := start
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.fail()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.fail()
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.fail()
			return nil
		}
	}
	d.pos = i
	return b[start:i]
}

// float consumes a number as encoding/json decodes it into a float64.
func (d *decoder) float() float64 {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail()
	}
	return f
}

// int consumes a number as encoding/json decodes it into an integer of
// the given bit size.
func (d *decoder) int(bits int) int64 {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	if err != nil {
		d.fail()
	}
	return n
}

// once marks the key bit in seen, failing on a duplicate key.
func (d *decoder) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		d.fail()
	}
	*seen |= bit
}

func (d *decoder) request() {
	q := &d.req
	var seen uint8
	for more := d.open('{'); more; more = d.next('}') {
		switch string(d.key()) {
		case "spec":
			d.once(&seen, 1)
			q.hasSpec = true
			d.spec()
		case "algorithm":
			d.once(&seen, 2)
			q.algorithm = d.str()
		case "weights":
			d.once(&seen, 4)
			q.hasWeights = true
			d.weights()
		case "seed":
			d.once(&seen, 8)
			q.seed = d.int(64)
		case "budget":
			d.once(&seen, 16)
			q.budget = int(d.int(strconv.IntSize))
		case "timeout_ms":
			d.once(&seen, 32)
			q.timeoutMS = d.int(64)
		default:
			d.fail()
		}
	}
}

func (d *decoder) weights() {
	w := &d.req.weights
	var seen uint8
	for more := d.open('{'); more; more = d.next('}') {
		switch string(d.key()) {
		case "ws":
			d.once(&seen, 1)
			w.WS = d.float()
		case "wb":
			d.once(&seen, 2)
			w.WB = d.float()
		default:
			d.fail()
		}
	}
}

func (d *decoder) spec() {
	q := &d.req
	var seen uint8
	for more := d.open('{'); more; more = d.next('}') {
		switch string(d.key()) {
		case "name":
			d.once(&seen, 1)
			q.name = d.str()
		case "satellites":
			d.once(&seen, 2)
			q.hasSats = true
			for more := d.open('['); more; more = d.next(']') {
				d.sats = append(d.sats, d.str())
			}
		case "crus":
			d.once(&seen, 4)
			q.hasCRUs = true
			for more := d.open('['); more; more = d.next(']') {
				d.crus = append(d.crus, d.cru())
			}
		case "sensors":
			d.once(&seen, 8)
			q.hasSensors = true
			for more := d.open('['); more; more = d.next(']') {
				d.sensors = append(d.sensors, d.sensor())
			}
		default:
			d.fail()
		}
	}
}

func (d *decoder) cru() (c cruRow) {
	var seen uint8
	for more := d.open('{'); more; more = d.next('}') {
		switch string(d.key()) {
		case "name":
			d.once(&seen, 1)
			c.name = d.str()
		case "parent":
			d.once(&seen, 2)
			c.parent = d.str()
		case "host_time":
			d.once(&seen, 4)
			c.host = d.float()
		case "sat_time":
			d.once(&seen, 8)
			c.sat = d.float()
		case "comm":
			d.once(&seen, 16)
			c.comm = d.float()
		default:
			d.fail()
		}
	}
	return c
}

func (d *decoder) sensor() (s sensorRow) {
	var seen uint8
	for more := d.open('{'); more; more = d.next('}') {
		switch string(d.key()) {
		case "name":
			d.once(&seen, 1)
			s.name = d.str()
		case "parent":
			d.once(&seen, 2)
			s.parent = d.str()
		case "satellite":
			d.once(&seen, 4)
			s.sat = d.str()
		case "comm":
			d.once(&seen, 8)
			s.comm = d.float()
		default:
			d.fail()
		}
	}
	return s
}

// build materialises the parse into r: one string for every decoded
// string's bytes and each slice at its final length. A present but empty
// array decodes to an empty, non-nil slice, as in encoding/json.
func (d *decoder) build(r *SolveRequest) {
	arena := string(d.arena)
	at := func(s span) string { return arena[s.off:s.end] }
	q := &d.req
	*r = SolveRequest{Algorithm: at(q.algorithm), Seed: q.seed, Budget: q.budget, TimeoutMS: q.timeoutMS}
	if q.hasWeights {
		w := q.weights
		r.Weights = &w
	}
	if !q.hasSpec {
		return
	}
	spec := &repro.Spec{Name: at(q.name)}
	if q.hasSats {
		spec.Satellites = make([]string, len(d.sats))
		for i, s := range d.sats {
			spec.Satellites[i] = at(s)
		}
	}
	if q.hasCRUs {
		spec.CRUs = make([]repro.SpecCRU, len(d.crus))
		for i, c := range d.crus {
			spec.CRUs[i] = repro.SpecCRU{Name: at(c.name), Parent: at(c.parent),
				HostTime: c.host, SatTime: c.sat, Comm: c.comm}
		}
	}
	if q.hasSensors {
		spec.Sensors = make([]repro.SpecSensor, len(d.sensors))
		for i, s := range d.sensors {
			spec.Sensors[i] = repro.SpecSensor{Name: at(s.name), Parent: at(s.parent),
				Satellite: at(s.sat), Comm: s.comm}
		}
	}
	r.Spec = spec
}

// errNonFinite reports a NaN or infinite number, which JSON cannot carry.
var errNonFinite = errors.New("api: response holds a non-finite number")

// AppendSolveResponse appends resp's JSON encoding to dst: the exact
// bytes a json.Encoder with SetIndent("", "  ") writes, trailing newline
// included. A NaN or infinite number is an error, as it is for the
// Encoder, and dst is then returned unextended.
func AppendSolveResponse(dst []byte, resp *SolveResponse) ([]byte, error) {
	if resp == nil {
		return append(dst, "null\n"...), nil
	}
	e := encoder{b: dst}
	e.open()
	e.str("api_version", resp.APIVersion)
	e.str("fingerprint", resp.Fingerprint)
	e.str("algorithm", resp.Algorithm)
	e.float("delay", resp.Delay)
	e.bool("exact", resp.Exact)
	e.bool("cached", resp.Cached)
	e.key("assignment")
	appendMap(&e, resp.Assignment, appendString)
	if bd := resp.Breakdown; bd != nil {
		e.key("breakdown")
		e.open()
		e.float("host_time", bd.HostTime)
		e.float("max_sat_load", bd.MaxSatLoad)
		if bd.Bottleneck != "" {
			e.str("bottleneck", bd.Bottleneck)
		}
		if len(bd.SatLoads) > 0 {
			e.key("sat_loads")
			appendMap(&e, bd.SatLoads, e.appendFloat)
		}
		e.close()
	}
	if st := resp.Stats; st != nil {
		e.key("stats")
		e.open()
		e.int("iterations", int64(st.Iterations))
		e.int("expansions", int64(st.Expansions))
		e.int("super_edges", int64(st.SuperEdges))
		e.int("final_edges", int64(st.FinalEdges))
		if st.FellBack {
			e.bool("fell_back", true)
		}
		e.close()
	}
	if resp.Work != 0 {
		e.int("work", int64(resp.Work))
	}
	e.int("elapsed_us", resp.ElapsedUS)
	if resp.Partial {
		e.bool("partial", true)
	}
	if resp.LowerBound != 0 {
		e.float("lower_bound", resp.LowerBound)
	}
	e.close()
	if e.err != nil {
		return dst, e.err
	}
	return append(e.b, '\n'), nil
}

// encoder writes indented JSON the way json.Indent lays out compact
// output: a member per line, "key": value, and empty objects as {}.
type encoder struct {
	b     []byte
	depth int
	empty bool // the innermost open object has no member yet
	err   error
}

func (e *encoder) newline() {
	e.b = append(e.b, '\n')
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, ' ', ' ')
	}
}

func (e *encoder) open() {
	e.b = append(e.b, '{')
	e.depth++
	e.empty = true
}

func (e *encoder) close() {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, '}')
	e.empty = false
}

func (e *encoder) key(k string) {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
	e.b = appendString(e.b, k)
	e.b = append(e.b, ':', ' ')
}

func (e *encoder) str(k, v string) {
	e.key(k)
	e.b = appendString(e.b, v)
}

func (e *encoder) bool(k string, v bool) {
	e.key(k)
	e.b = strconv.AppendBool(e.b, v)
}

func (e *encoder) int(k string, v int64) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *encoder) float(k string, v float64) {
	e.key(k)
	e.b = e.appendFloat(e.b, v)
}

// appendFloat formats f as encoding/json does: like ES6, 'f' between
// 1e-6 and 1e21 and 'e' outside, with a one-digit negative exponent
// unpadded (1e-7, not 1e-07).
func (e *encoder) appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.err = errNonFinite
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendMap writes m as an object with its keys in byte order, as
// encoding/json does; a nil map is null.
func appendMap[V any](e *encoder, m map[string]V, value func([]byte, V) []byte) {
	if m == nil {
		e.b = append(e.b, "null"...)
		return
	}
	var stack [64]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.open()
	for _, k := range keys {
		e.key(k)
		e.b = value(e.b, m[k])
	}
	e.close()
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: <, >
// and & become \u003c, \u003e and \u0026, control characters are
// escaped, invalid UTF-8 becomes \ufffd, and U+2028 and U+2029 are
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
