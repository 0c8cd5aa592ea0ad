package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceIDsSequentialAndExported(t *testing.T) {
	tr := New(8)
	tr.SetEnabled(true)
	a := tr.Start("first")
	b := tr.Start("second")
	if a.TraceID() != "t0000000000000001" || b.TraceID() != "t0000000000000002" {
		t.Fatalf("trace IDs = %q, %q", a.TraceID(), b.TraceID())
	}
	child := a.Start("child")
	if child.TraceID() != a.TraceID() {
		t.Fatalf("child trace ID %q != root %q", child.TraceID(), a.TraceID())
	}
	child.End()
	a.End()
	b.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal lines = %d", len(lines))
	}
	var ex SpanExport
	if err := json.Unmarshal([]byte(lines[0]), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.TraceID != "t0000000000000001" {
		t.Fatalf("exported root trace_id = %q", ex.TraceID)
	}
	if len(ex.Spans) != 1 || ex.Spans[0].TraceID != "" {
		t.Fatalf("child spans must not repeat the trace ID: %+v", ex.Spans)
	}
	var nilSpan *Span
	if nilSpan.TraceID() != "" {
		t.Fatal("nil span must be inert")
	}
	nilSpan.Keep() // must not panic
}

func TestTailSamplingKeepsMarkedTraces(t *testing.T) {
	tr := New(64)
	tr.SetEnabled(true)
	tr.SetTailSampling(&TailSampleConfig{KeepEvery: -1}) // drop all boring traces

	for i := 0; i < 10; i++ {
		sp := tr.Start("boring")
		sp.End()
	}
	sp := tr.Start("failed")
	sp.Start("inner").Keep() // marking any span of the trace suffices
	sp.End()

	traces := tr.Traces()
	if len(traces) != 1 || traces[0].Name() != "failed" {
		t.Fatalf("retained = %v", traces)
	}
	st := tr.SampleStats()
	if st.KeptMarked != 1 || st.Dropped != 10 || st.KeptSlow != 0 || st.KeptSampled != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if tr.Total() != 1 {
		t.Fatalf("Total = %d, want retained count only", tr.Total())
	}
}

func TestTailSamplingKeepsSlowTraces(t *testing.T) {
	tr := New(64)
	tr.SetEnabled(true)
	tr.SetTailSampling(&TailSampleConfig{KeepEvery: -1, SlowThreshold: 5 * time.Millisecond})

	fast := tr.Start("fast")
	fast.End()
	slow := tr.Start("slow")
	time.Sleep(10 * time.Millisecond)
	slow.End()

	traces := tr.Traces()
	if len(traces) != 1 || traces[0].Name() != "slow" {
		t.Fatalf("retained = %v", traces)
	}
	st := tr.SampleStats()
	if st.KeptSlow != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTailSamplingKeepEveryDeterministic(t *testing.T) {
	tr := New(64)
	tr.SetEnabled(true)
	tr.SetTailSampling(&TailSampleConfig{KeepEvery: 4})

	var kept []string
	for i := 0; i < 12; i++ {
		sp := tr.Start("req")
		id := sp.TraceID()
		sp.End()
		for _, r := range tr.Traces() {
			if r.TraceID() == id {
				kept = append(kept, id)
				break
			}
		}
	}
	// Boring traces 0, 4, 8 survive: deterministic 1-in-4 by counter.
	if len(kept) != 3 {
		t.Fatalf("kept %d of 12, want 3: %v", len(kept), kept)
	}
	st := tr.SampleStats()
	if st.KeptSampled != 3 || st.Dropped != 9 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTailSamplingDisabledKeepsEverything(t *testing.T) {
	tr := New(64)
	tr.SetEnabled(true)
	tr.SetTailSampling(&TailSampleConfig{KeepEvery: -1})
	tr.SetTailSampling(nil) // back to retain-everything
	for i := 0; i < 5; i++ {
		tr.Start("x").End()
	}
	if got := len(tr.Traces()); got != 5 {
		t.Fatalf("retained %d, want 5", got)
	}
	if st := tr.SampleStats(); st != (SampleStats{}) {
		t.Fatalf("stats must stay zero with sampling off: %+v", st)
	}
}

func TestTailSamplingKeepEveryOneKeepsAll(t *testing.T) {
	tr := New(64)
	tr.SetEnabled(true)
	tr.SetTailSampling(&TailSampleConfig{KeepEvery: 1})
	for i := 0; i < 4; i++ {
		tr.Start("x").End()
	}
	st := tr.SampleStats()
	if st.KeptSampled != 4 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
