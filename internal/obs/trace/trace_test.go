package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledTracerIsNilSafe(t *testing.T) {
	tr := New(4)
	sp := tr.Start("root", String("k", "v"))
	if sp != nil {
		t.Fatalf("disabled tracer returned non-nil span")
	}
	// Every method must be a no-op on nil.
	child := sp.Start("child")
	child.SetAttr(Int("i", 1))
	child.End()
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if got := len(tr.Traces()); got != 0 {
		t.Fatalf("disabled tracer recorded %d traces", got)
	}
}

func TestSpanHierarchyAndRing(t *testing.T) {
	tr := New(2)
	tr.SetEnabled(true)
	for i := 0; i < 3; i++ {
		root := tr.Start("root", Int("iter", i))
		a := root.Start("stage.a")
		a.End()
		b := root.Start("stage.b")
		c := b.Start("inner")
		c.End()
		b.End()
		root.End()
	}
	traces := tr.Traces()
	if len(traces) != 2 {
		t.Fatalf("ring retained %d traces, want 2", len(traces))
	}
	if tr.Total() != 3 {
		t.Fatalf("total = %d, want 3", tr.Total())
	}
	// Most recent first.
	exp := traces[0].Export()
	if exp.Attrs["iter"] != int64(2) {
		t.Fatalf("most recent trace iter = %v, want 2", exp.Attrs["iter"])
	}
	if len(exp.Spans) != 2 || exp.Spans[1].Name != "stage.b" || len(exp.Spans[1].Spans) != 1 {
		t.Fatalf("unexpected tree: %+v", exp)
	}
	if exp.DurNS <= 0 {
		t.Fatalf("root duration not recorded: %d", exp.DurNS)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := New(4)
	tr.SetEnabled(true)
	sp := tr.Start("root")
	sp.End()
	d := sp.Duration()
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Duration() != d {
		t.Fatalf("second End changed duration")
	}
	if len(tr.Traces()) != 1 {
		t.Fatalf("double End recorded trace twice")
	}
}

func TestMaxSpansCapDropsChildren(t *testing.T) {
	tr := New(4)
	tr.maxSpans = 3 // root + 2 children
	tr.SetEnabled(true)
	root := tr.Start("root")
	kept := 0
	for i := 0; i < 10; i++ {
		if c := root.Start("child"); c != nil {
			c.End()
			kept++
		}
	}
	root.End()
	if kept != 2 {
		t.Fatalf("kept %d children, want 2", kept)
	}
	exp := tr.Traces()[0].Export()
	if exp.Attrs["dropped_spans"] != int64(8) {
		t.Fatalf("dropped_spans = %v, want 8", exp.Attrs["dropped_spans"])
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	tr := New(8)
	tr.SetEnabled(true)
	for i := 0; i < 3; i++ {
		sp := tr.Start("run", Int("i", i))
		sp.Start("step").End()
		sp.End()
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []SpanExport
	for sc.Scan() {
		var e SpanExport
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	// Oldest first.
	if lines[0].Attrs["i"] != float64(0) || lines[2].Attrs["i"] != float64(2) {
		t.Fatalf("JSONL not chronological: %v ... %v", lines[0].Attrs, lines[2].Attrs)
	}
}

func TestHandlerServesNDJSON(t *testing.T) {
	tr := New(8)
	tr.SetEnabled(true)
	for i := 0; i < 5; i++ {
		sp := tr.Start("req")
		sp.End()
	}
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=2", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	got := strings.Count(strings.TrimSpace(rec.Body.String()), "\n") + 1
	if got != 2 {
		t.Fatalf("handler returned %d traces, want 2", got)
	}
}

// TestConcurrentSpansAndExport exercises concurrent child creation,
// attribute writes, and export under the race detector.
func TestConcurrentSpansAndExport(t *testing.T) {
	tr := New(16)
	tr.SetEnabled(true)
	root := tr.Start("root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Start("worker", Int("g", g))
				c.SetAttr(Int("i", i))
				c.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			root.Export()
			_ = tr.WriteJSONL(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	root.End()
	exp := tr.Traces()[0].Export()
	if len(exp.Spans) != 8*50 {
		t.Fatalf("got %d children, want %d", len(exp.Spans), 8*50)
	}
}

func TestResetClearsRing(t *testing.T) {
	tr := New(4)
	tr.SetEnabled(true)
	tr.Start("a").End()
	tr.Reset()
	if len(tr.Traces()) != 0 {
		t.Fatalf("Reset left traces behind")
	}
	tr.Start("b").End()
	if got := len(tr.Traces()); got != 1 {
		t.Fatalf("post-Reset trace count = %d", got)
	}
}
