package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call into one layer. The traced run replays each op layer by
// layer, one call after another, so a child span does not lie inside its
// parent's interval: Parent names the layer whose work logically contains
// this call, and every span of an op lies inside the op's root span, "op".
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root
	Op      int    `json:"op"`     // shared by the spans of one op
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was made
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write puts them out when the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: r.now()})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].EndNs = r.now() }

// add records a span whose interval the caller timed.
func (r *recorder) add(name string, parent, op int, startNs, endNs int64) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: startNs, EndNs: endNs})
	return len(r.spans)
}

// timed records fn as one span and returns the span's ID.
func (r *recorder) timed(name string, parent, op int, fn func()) int {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
	return id
}

// durations returns every span's duration in ns, by span name.
func (r *recorder) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs))
	}
	return out
}

// write puts the spans out as JSON lines.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
