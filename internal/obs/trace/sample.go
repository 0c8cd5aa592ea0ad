package trace

import "time"

// Tail-based sampling: the keep/drop decision happens when a root span
// ends, once its full duration and error markings are known — the
// opposite of head sampling, which must guess at request start and
// therefore throws away exactly the traces an operator wants (the slow
// and the broken ones). The policy here is the standard tail-sampler
// triad:
//
//   - a trace marked with Span.Keep (errors, degraded-mode responses,
//     breaker trips) is always retained;
//   - a trace at least SlowThreshold long is always retained;
//   - everything else — the boring fast successes — is retained
//     deterministically 1-in-KeepEvery, by a shared counter rather than
//     randomness, so replaying a workload reproduces the journal.
//
// Dropped traces still count in SampleStats, so the exported journal
// can state exactly what fraction of traffic it represents. Total()
// keeps its existing meaning: traces actually retained.

// TailSampleConfig is the keep/drop policy applied when a root span
// ends.
type TailSampleConfig struct {
	// KeepEvery retains 1 in KeepEvery unmarked, fast traces. Zero or
	// one keeps them all; negative keeps none (only marked/slow traces
	// survive).
	KeepEvery int
	// SlowThreshold retains every trace whose root duration is at least
	// this long. Zero disables the slow path.
	SlowThreshold time.Duration
}

// SampleStats counts the outcome of every tail-sampling decision since
// construction.
type SampleStats struct {
	KeptMarked  uint64 `json:"kept_marked"`  // retained via Span.Keep
	KeptSlow    uint64 `json:"kept_slow"`    // retained via SlowThreshold
	KeptSampled uint64 `json:"kept_sampled"` // retained via 1-in-KeepEvery
	Dropped     uint64 `json:"dropped"`
}

// SetTailSampling installs (or, with a nil pointer, removes) the
// tail-sampling policy. With no policy every completed trace is
// retained and SampleStats stays untouched — the pre-sampling
// behaviour.
func (t *Tracer) SetTailSampling(cfg *TailSampleConfig) {
	if cfg == nil {
		t.sampleCfg.Store(nil)
		return
	}
	c := *cfg
	t.sampleCfg.Store(&c)
}

// SampleStats returns the cumulative tail-sampling decision counts.
func (t *Tracer) SampleStats() SampleStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Keep marks the whole trace this span belongs to as must-retain:
// tail sampling will never drop it. Call it on any span of the trace —
// typically where the error or degradation is discovered. Nil-safe.
func (s *Span) Keep() {
	if s == nil {
		return
	}
	s.meta.keep.Store(true)
}

// TraceID returns the trace's process-unique identifier ("" for nil).
// IDs are sequence-based — t0000000000000001, t0000000000000002, … per
// tracer — so a fixed workload produces a fixed journal.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.meta.id
}

// decide applies the tail-sampling policy to a completed root span and
// updates stats. Caller holds t.mu.
func (t *Tracer) decide(root *Span, cfg *TailSampleConfig) bool {
	if root.meta.keep.Load() {
		t.stats.KeptMarked++
		return true
	}
	if cfg.SlowThreshold > 0 && root.dur >= cfg.SlowThreshold {
		t.stats.KeptSlow++
		return true
	}
	switch {
	case cfg.KeepEvery < 0:
		t.stats.Dropped++
		return false
	case cfg.KeepEvery <= 1:
		t.stats.KeptSampled++
		return true
	default:
		n := t.sampleSeq
		t.sampleSeq++
		if n%uint64(cfg.KeepEvery) == 0 {
			t.stats.KeptSampled++
			return true
		}
		t.stats.Dropped++
		return false
	}
}
