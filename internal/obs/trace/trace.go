// Package trace is a stdlib-only hierarchical span tracer for the hot
// paths of the repo: Algorithm 1's data-prep stages, per-epoch and
// per-batch training work, and individual serving requests. It answers
// the question the end-to-end timers cannot — *where inside the pipeline
// the time goes* — which the paper's efficiency claim (Table 3 / §V-E)
// needs before any optimisation PR can claim a win.
//
// Design constraints, in order:
//
//  1. Near-zero cost when disabled (the production serving default):
//     starting a span is one atomic load returning nil, and every Span
//     method is nil-safe, so instrumented code needs no conditionals.
//  2. No dependencies: spans carry monotonic wall time (time.Time's
//     monotonic reading), a name, and a flat attribute list.
//  3. Bounded memory: completed root traces land in a fixed-size ring,
//     and each trace caps its span count so a pathological loop (say,
//     per-batch spans of a week-long training run) degrades to dropped
//     spans, never to unbounded growth.
//
// Usage:
//
//	tr := trace.Default()
//	tr.SetEnabled(true)
//	sp := tr.Start("predictor.fit", trace.String("scenario", "Mul-Exp"))
//	child := sp.Start("dataprep.clean")
//	... work ...
//	child.End()
//	sp.End() // completed root traces become visible in tr.Traces()
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values should be plain
// scalars (string, int64, float64, bool) so JSONL export stays flat.
type Attr struct {
	Key   string
	Value any
}

// String constructs a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int constructs an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: int64(value)} }

// Int64 constructs an integer attribute.
func Int64(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Float constructs a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Bool constructs a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// traceMeta is the per-trace bookkeeping shared by every span of one
// root: total span count (for the per-trace cap) and how many span
// starts were refused once the cap was hit.
type traceMeta struct {
	tracer  *Tracer
	id      string // sequence-based trace ID, fixed at root Start
	spans   atomic.Int64
	dropped atomic.Int64
	keep    atomic.Bool // marked must-retain for tail sampling
}

// Span is one timed region of a trace. A nil *Span is a valid no-op:
// every method checks the receiver, so disabled tracing costs only the
// nil checks at the call sites.
type Span struct {
	meta *traceMeta
	name string
	root bool // set for the first span of a trace; End publishes it

	start time.Time // carries a monotonic reading

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Tracer collects completed root spans into a bounded ring. The zero
// value is unusable; construct with New or use Default.
type Tracer struct {
	enabled  atomic.Bool
	maxSpans int64 // per-trace span cap

	seq       atomic.Uint64                    // trace ID sequence
	sampleCfg atomic.Pointer[TailSampleConfig] // nil → retain everything

	mu        sync.Mutex
	ring      []*Span // completed root spans, oldest overwritten first
	next      int
	total     uint64 // root traces retained (post-sampling)
	sampleSeq uint64 // boring-trace counter for 1-in-KeepEvery
	stats     SampleStats
}

// DefaultRingSize is the number of completed traces New retains when
// given a non-positive capacity.
const DefaultRingSize = 64

// DefaultMaxSpans caps the spans of a single trace (root included).
const DefaultMaxSpans = 4096

// New returns a disabled tracer retaining the last ringSize completed
// traces (DefaultRingSize when ringSize <= 0).
func New(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{ring: make([]*Span, ringSize), maxSpans: DefaultMaxSpans}
}

// defaultTracer is the process-wide tracer, disabled until a command
// opts in (rptcnd -trace, experiments -trace-out, ...).
var defaultTracer = New(DefaultRingSize)

// Default returns the process-wide tracer.
func Default() *Tracer { return defaultTracer }

// SetEnabled turns span collection on or off. Spans of traces already
// in flight keep recording; only new root spans observe the switch.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether new root spans are being collected.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Start begins a new root span, or returns nil when the tracer is
// disabled — the single atomic load that makes disabled tracing free.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if !t.enabled.Load() {
		return nil
	}
	meta := &traceMeta{tracer: t, id: fmt.Sprintf("t%016x", t.seq.Add(1))}
	meta.spans.Store(1)
	return &Span{meta: meta, name: name, root: true, start: time.Now(), attrs: attrs}
}

// Start begins a child span under s. Nil-safe: a nil receiver (disabled
// tracer, or a span dropped by the per-trace cap) returns nil.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	if s.meta.spans.Add(1) > s.meta.tracer.maxSpans {
		s.meta.dropped.Add(1)
		return nil
	}
	child := &Span{meta: s.meta, name: name, start: time.Now(), attrs: attrs}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// SetAttr appends attributes to the span. Nil-safe.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End stops the span's clock. Ending a root span publishes the whole
// trace into the tracer's ring; double End is a no-op. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if s.root {
		if d := s.meta.dropped.Load(); d > 0 {
			s.attrs = append(s.attrs, Int64("dropped_spans", d))
		}
	}
	s.mu.Unlock()
	if s.root {
		s.meta.tracer.record(s)
	}
}

// Duration returns the measured duration (0 until End, 0 for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// record applies the tail-sampling policy (if any) to a completed root
// trace and stores survivors in the ring.
func (t *Tracer) record(root *Span) {
	cfg := t.sampleCfg.Load()
	t.mu.Lock()
	if cfg != nil && !t.decide(root, cfg) {
		t.mu.Unlock()
		return
	}
	t.ring[t.next] = root
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	t.mu.Unlock()
}

// Traces returns the completed root spans currently retained, most
// recent first.
func (t *Tracer) Traces() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if t.ring[idx] != nil {
			out = append(out, t.ring[idx])
		}
	}
	return out
}

// Total returns how many root traces have completed since construction
// (including any the ring has since evicted).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Reset drops all retained traces (the enabled flag is untouched).
func (t *Tracer) Reset() {
	t.mu.Lock()
	for i := range t.ring {
		t.ring[i] = nil
	}
	t.next = 0
	t.mu.Unlock()
}
