package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Spans of one op share Req, numbered per
// client; Parent indexes the client's span list (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory, one list per client so recording
// needs no lock. A nil *tracer records nothing: the untraced run passes
// nil, and every method is a no-op on it.
type tracer struct {
	epoch time.Time
	spans [clients][]span
	reqs  [clients]int64 // last request ID per client
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end and for children. A
// root span (parent -1) starts a new request ID; children inherit theirs.
func (t *tracer) begin(c int, name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	var req int64
	if parent < 0 {
		t.reqs[c]++
		req = t.reqs[c]
	} else {
		req = t.spans[c][parent].Req
	}
	t.spans[c] = append(t.spans[c], span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans[c]) - 1)
}

func (t *tracer) end(c int, id int32) {
	if t == nil {
		return
	}
	t.spans[c][id].End = int64(time.Since(t.epoch))
}

// selfTimes returns every span name's self times in microseconds: a
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	for c := range t.spans {
		spans := t.spans[c]
		child := make([]int64, len(spans))
		for _, s := range spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range spans {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines, client by client.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c := range t.spans {
		for _, s := range t.spans[c] {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{c, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
