package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/workload"
)

// randomRequest is the request shape crload and perfbench send: a seeded
// workload.Random tree and, for odd seeds, every optional field.
func randomRequest(seed int64, crus int) *SolveRequest {
	tree := workload.Random(rand.New(rand.NewSource(seed)), workload.DefaultRandomSpec(crus, 3))
	req := &SolveRequest{Spec: repro.ToSpec(tree, fmt.Sprintf("random-%d", seed))}
	if seed%2 == 1 {
		req.Algorithm = string(repro.BranchBound)
		req.Weights = &Weights{WS: 0.75, WB: 0.25}
		req.Seed, req.Budget, req.TimeoutMS = seed, 1<<20, 250
	}
	return req
}

func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		body, err := json.Marshal(randomRequest(seed, 4+int(seed)%40))
		if err != nil {
			t.Fatal(err)
		}
		var fast, strict SolveRequest
		if !DecodeSolveRequest(body, &fast) {
			t.Fatalf("seed %d: canonical body left the fast path: %s", seed, body)
		}
		if err := DecodeStrict(body, &strict); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, strict) {
			t.Fatalf("seed %d: fast path decoded %+v, encoding/json %+v", seed, fast, strict)
		}
	}
}

func FuzzSolveRequestDecode(f *testing.F) {
	canonical, err := json.Marshal(randomRequest(1, 6))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	for _, body := range []string{
		`{"spec":{"name":"a","satellites":["R"],"crus":[{"name":"r","host_time":1,"sat_time":3}],"sensors":[{"name":"s","parent":"r","satellite":"R","comm":0.5}]}}`,
		`{"spec":{"satellites":[],"crus":[],"sensors":[]},"algorithm":"","weights":{}}`,
		`{"spec":{"name":"A\n"}}`,
		`{"spec":{"name":"café <&> ` + "\u2028\u2029" + `"}}`,
		`{"spec":{"n\u0061me":"\u00e9\"q\\"}}`,
		`{"Spec":{}}`,
		`{"spec":{"Name":"x"}}`,
		`{"spec":{},"spec":{}}`,
		`{"seed":1,"seed":2}`,
		`{"spec":{"crus":[{"name":"a","name":"b"}]}}`,
		`null`,
		`{"spec":null}`,
		`{"weights":null}`,
		`{"spec":{"crus":[null]}}`,
		`{"spec":{"crus":[{"name":"r","host_time":1e400}]}}`,
		`{"spec":{"crus":[{"name":"r","host_time":1e-400}]}}`,
		`{"spec":{"crus":[{"name":"r","host_time":-0}]},"seed":-0}`,
		`{"seed":1.5}`,
		`{"budget":9223372036854775808}`,
		`{"timeout_ms":1e3}`,
		`{"spec":{"crus":[{"host_time":01}]}}`,
		`{"spec":{"crus":[{"host_time":1.}]}}`,
		`{"spec":{"crus":[{"host_time":-}]}}`,
		`{"spec":{}} garbage`,
		`{"spec":{}}{"spec":{}}`,
		`{"spec":{}}` + " \t\r\n",
		" \n{ \"spec\" : { \"name\" : \"w\" } , \"seed\" : 3 } ",
		`{"spec":{"name":"ctl` + "\x01" + `"}}`,
		"{\"spec\":{\"name\":\"bad utf8 \xff\"}}",
		`{"unknown":1}`,
		`{"spec":{"crus":[{"name":"a"},]}}`,
		`{"spec":{"crus":[{"name":"a"}`,
		`{}`,
		``,
		`[]`,
		`{"spec":{"crus":[{"name":"a","sat_time":true}]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast SolveRequest
		if !DecodeSolveRequest(body, &fast) {
			if !reflect.DeepEqual(fast, SolveRequest{}) {
				t.Fatalf("declined body %q left %+v behind", body, fast)
			}
			return
		}
		var strict SolveRequest
		if err := DecodeStrict(body, &strict); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(fast, strict) {
			t.Fatalf("body %q: fast path decoded %+v, encoding/json %+v", body, fast, strict)
		}
	})
}

// indented is the reference encoding: what the handler wrote with
// encoding/json before the codec.
func indented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// fuzzResponse spreads the fuzz arguments over every field of a response;
// the bits of shape choose which optional parts are present.
func fuzzResponse(name, loc string, delay, load float64, work int64, shape uint8) *SolveResponse {
	resp := &SolveResponse{
		APIVersion: Version, Fingerprint: name + loc, Algorithm: loc,
		Delay: delay, Exact: shape&1 != 0, Cached: shape&2 != 0,
		Work: int(work), ElapsedUS: work / 3, Partial: shape&4 != 0, LowerBound: load,
	}
	if shape&8 != 0 {
		resp.Assignment = map[string]string{name: loc, loc: "host", "root": name}
	} else if shape&16 != 0 {
		resp.Assignment = map[string]string{}
	}
	if shape&32 != 0 {
		resp.Breakdown = &Breakdown{HostTime: delay - load, MaxSatLoad: load, Bottleneck: loc,
			SatLoads: map[string]float64{loc: load, name: delay}}
	}
	if shape&64 != 0 {
		resp.Stats = &SearchStats{Iterations: int(work), Expansions: 2, SuperEdges: int(shape),
			FinalEdges: 4, FellBack: shape&128 != 0}
	}
	return resp
}

func FuzzSolveResponseEncode(f *testing.F) {
	f.Add("cru-1", "sat-0", 12.5, 3.25, int64(17), uint8(0xff))
	f.Add("a<b>&c", `q"uo\te`, 1e21, 1e-7, int64(-3), uint8(0x7b))
	f.Add("ctl\x00\x1f\x7f\b\f\n\r\t", "café ☃ 日本", 0.1, math.Copysign(0, -1), int64(0), uint8(0x68))
	f.Add("line\u2028para\u2029", "bad\xffutf8\xc3", 123456789.125, 5e-324, int64(1)<<40, uint8(0x2a))
	f.Add("", "", 0.0, 0.0, int64(0), uint8(0))
	f.Add("nan", "inf", math.NaN(), math.Inf(1), int64(9), uint8(0x20))
	f.Add("big", "small", -1.7976931348623157e308, 1e20, int64(7), uint8(0x60))
	f.Fuzz(func(t *testing.T, name, loc string, delay, load float64, work int64, shape uint8) {
		resp := fuzzResponse(name, loc, delay, load, work, shape)
		want, wantErr := indented(resp)
		prefix := []byte("prefix")
		got, err := AppendSolveResponse(prefix, resp)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed encode extended dst to %q", got)
			}
			return
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("encoded\n%s\nencoding/json\n%s", got, want)
		}
	})
}

// BenchmarkDecodeSolveRequest decodes a 16-CRU canonical request body.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	body, err := json.Marshal(randomRequest(16, 16))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var req SolveRequest
			if !DecodeSolveRequest(body, &req) {
				b.Fatal("canonical body left the fast path")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var req SolveRequest
			if err := DecodeStrict(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncodeSolveResponse encodes the response to a solved 16-CRU
// request.
func BenchmarkEncodeSolveResponse(b *testing.B) {
	tree, err := randomRequest(16, 16).Tree()
	if err != nil {
		b.Fatal(err)
	}
	out, status, err := repro.NewService(nil, 0).Solve(b.Context(), tree)
	if err != nil {
		b.Fatal(err)
	}
	resp := NewSolveResponse(tree, out, status)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			if buf, err = AppendSolveResponse(buf[:0], resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
