package nn

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Profiler accumulates per-step forward/backward time of the chains it
// times, so any model — RPTCN's stage pipeline, a baseline Sequential —
// gets a per-layer cost breakdown without editing a single layer
// implementation. Attach it to a Sequential once before training:
//
//	p := nn.NewProfiler()
//	model := nn.NewSequential(
//		nn.NewLSTM(r, in, hidden),
//		nn.NewDense(r, hidden, horizon),
//	)
//	p.WrapSequential(model) // steps "0:lstm" and "1:dense"
//	... train ...
//	fmt.Print(p.Table())
//
// The timers belong to the chain that runs the Sequential's steps
// (chain.go), one per step, not to the layer graph: the layers, their
// parameters and every traversal of them are what they are unprofiled.
// Counters are atomics, so concurrent forward passes (e.g. fleet
// training) and the row chunks of one pass accumulate correctly; the
// measured overhead is two time.Now calls per timed step per chunk.
//
// A stage's call count is one per pass. Its time is summed over the
// pass's row chunks (see chain.go), which run on several workers at
// once: it is the CPU time the stage took, not wall time, and with two
// workers the stages of a step add up to about twice the step's wall
// clock.
type Profiler struct {
	mu    sync.Mutex
	order []string
	byKey map[string]*stepTimes
}

// stepTimes holds the atomic counters of one named step. Steps timed
// under one name share one stepTimes, merging the accumulation. A nil
// *stepTimes is an untimed step: its methods record nothing.
type stepTimes struct {
	fwdCalls, bwdCalls atomic.Int64
	fwdNanos, bwdNanos atomic.Int64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{byKey: make(map[string]*stepTimes)}
}

// timer returns the counters of name, registering it on first use.
func (p *Profiler) timer(name string) *stepTimes {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.byKey[name]
	if !ok {
		t = &stepTimes{}
		p.byKey[name] = t
		p.order = append(p.order, name)
	}
	return t
}

// WrapSequential times every layer of s as a step named names[i] (one
// name per layer) or, given no names, "<index>:<kind>" ("0:lstm",
// "1:dense", ...). The layers stay as they are. A nil Profiler does nothing, and a Sequential
// already timed keeps its timers, so profiling twice counts once and
// profiling a model that serves writes nothing.
func (p *Profiler) WrapSequential(s *Sequential, names ...string) {
	if p == nil || s == nil || s.timers != nil {
		return
	}
	timers := make([]*stepTimes, len(s.Layers))
	for i, l := range s.Layers {
		name := fmt.Sprintf("%d:%s", i, LayerKind(l))
		if names != nil {
			name = names[i]
		}
		timers[i] = p.timer(name)
	}
	s.timers = timers
}

// start returns the time a timed step begins; free on an untimed one.
func (t *stepTimes) start() (t0 time.Time) {
	if t != nil {
		t0 = time.Now()
	}
	return t0
}

// observe adds the time since t0 to the step's forward or backward
// total — one chunk's share of a pass.
func (t *stepTimes) observe(t0 time.Time, backward bool) {
	if t == nil {
		return
	}
	nanos := &t.fwdNanos
	if backward {
		nanos = &t.bwdNanos
	}
	nanos.Add(int64(time.Since(t0)))
}

// count records one forward or backward pass through the step.
func (t *stepTimes) count(backward bool) {
	if t == nil {
		return
	}
	calls := &t.fwdCalls
	if backward {
		calls = &t.bwdCalls
	}
	calls.Add(1)
}

// LayerStats is a point-in-time snapshot of one timed step's cost.
type LayerStats struct {
	Name     string
	FwdCalls int64
	BwdCalls int64
	Fwd      time.Duration // total forward time
	Bwd      time.Duration // total backward time
}

// Total returns forward + backward time.
func (s LayerStats) Total() time.Duration { return s.Fwd + s.Bwd }

// Stats returns per-step totals in the order the names were first timed.
func (p *Profiler) Stats() []LayerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]LayerStats, 0, len(p.order))
	for _, name := range p.order {
		st := p.byKey[name]
		out = append(out, LayerStats{
			Name:     name,
			FwdCalls: st.fwdCalls.Load(),
			BwdCalls: st.bwdCalls.Load(),
			Fwd:      time.Duration(st.fwdNanos.Load()),
			Bwd:      time.Duration(st.bwdNanos.Load()),
		})
	}
	return out
}

// Reset zeroes all counters (the set of timed steps is kept).
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.byKey {
		st.fwdCalls.Store(0)
		st.bwdCalls.Store(0)
		st.fwdNanos.Store(0)
		st.bwdNanos.Store(0)
	}
}

// Table renders the per-layer breakdown as a fixed-width text table,
// sorted by total time descending, with per-call means and each layer's
// share of the summed layer time. Totals are rounded to the microsecond;
// per-call means see perCall.
func (p *Profiler) Table() string {
	stats := p.Stats()
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Total() > stats[j].Total() })
	var total time.Duration
	for _, s := range stats {
		total += s.Total()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %9s %12s %12s %12s %12s %6s\n",
		"layer", "calls", "fwd total", "fwd/call", "bwd total", "bwd/call", "share")
	for _, s := range stats {
		share := 0.0
		if total > 0 {
			share = float64(s.Total()) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-24s %9d %12s %12s %12s %12s %5.1f%%\n",
			s.Name, s.FwdCalls,
			s.Fwd.Round(time.Microsecond), perCall(s.Fwd, s.FwdCalls),
			s.Bwd.Round(time.Microsecond), perCall(s.Bwd, s.BwdCalls),
			share)
	}
	return b.String()
}

// perCall is the mean of total over calls, rounded to 10 ns below 10 µs,
// so a step of a few hundred nanoseconds a call does not read 0s, and to
// the microsecond above.
func perCall(total time.Duration, calls int64) time.Duration {
	if calls == 0 {
		return 0
	}
	d := total / time.Duration(calls)
	if d < 10*time.Microsecond {
		return d.Round(10 * time.Nanosecond)
	}
	return d.Round(time.Microsecond)
}

// LayerKind names a layer by its architectural kind ("conv1d", "dense",
// "attention", "lstm", ...), for profile labels and run journals.
func LayerKind(l Layer) string {
	switch l.(type) {
	case *Dense:
		return "dense"
	case *CausalConv1D:
		return "conv1d"
	case *TemporalBlock:
		return "block"
	case *TCN:
		return "tcn"
	case *LSTM:
		return "lstm"
	case *FeatureAttention:
		return "attention"
	case *SpatialDropout1D:
		return "dropout"
	case *ReLU:
		return "relu"
	case *LastStep:
		return "laststep"
	case *Flatten:
		return "flatten"
	case *Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("%T", l)
	}
}
