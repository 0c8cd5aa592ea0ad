package nn

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Profiler accumulates per-layer forward/backward wall time through
// Profiled wrappers, so any model — RPTCN's stage pipeline, a baseline
// Sequential — gets a per-layer cost breakdown without editing a single
// layer implementation. Wrap the layers once before training:
//
//	p := nn.NewProfiler()
//	model := nn.NewSequential(
//		p.Wrap("lstm", nn.NewLSTM(r, in, hidden, false)),
//		p.Wrap("out", nn.NewDense(r, hidden, horizon)),
//	)
//	... train ...
//	fmt.Print(p.Table())
//
// Counters are atomics, so concurrent forward passes (e.g. fleet
// training) and the row chunks of one pass accumulate correctly; the
// measured overhead is two time.Now calls per wrapped layer per chunk.
//
// A stage's call count is one per pass. Its time is summed over the
// pass's row chunks (see chain.go), which run on several workers at
// once: it is the CPU time the stage took, not wall time, and with two
// workers the stages of a step add up to about twice the step's wall
// clock.
type Profiler struct {
	mu    sync.Mutex
	order []string
	byKey map[string]*layerTimes
}

// layerTimes holds the atomic counters of one named entry. Wrapping the
// same name twice shares one layerTimes, merging the accumulation.
type layerTimes struct {
	fwdCalls, bwdCalls atomic.Int64
	fwdNanos, bwdNanos atomic.Int64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{byKey: make(map[string]*layerTimes)}
}

// Wrap registers l under name and returns the timing wrapper. A nil
// Profiler (or nil layer) returns l unchanged, so instrumentation
// points can wrap unconditionally and pay nothing when profiling is
// off. Wrapping the same name twice accumulates into one entry.
func (p *Profiler) Wrap(name string, l Layer) Layer {
	if p == nil || l == nil {
		return l
	}
	p.mu.Lock()
	lt, ok := p.byKey[name]
	if !ok {
		lt = &layerTimes{}
		p.byKey[name] = lt
		p.order = append(p.order, name)
	}
	p.mu.Unlock()
	return &Profiled{name: name, inner: l, times: lt}
}

// WrapSequential replaces every layer of s in place with a profiled
// wrapper named "<index>:<kind>" ("0:lstm", "1:dense", ...).
func (p *Profiler) WrapSequential(s *Sequential) {
	if p == nil || s == nil {
		return
	}
	for i, l := range s.Layers {
		s.Layers[i] = p.Wrap(fmt.Sprintf("%d:%s", i, LayerKind(l)), l)
	}
}

// Profiled wraps a Layer and times every Forward/Backward call. It is
// itself a Layer, delegating Params to the wrapped layer, so wrapping
// never changes training semantics or serialized weights.
type Profiled struct {
	name  string
	inner Layer
	times *layerTimes
}

// Forward implements Layer.
func (w *Profiled) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return w.forward(nil, x, train)
}

// InferForward implements InferLayer: the wrapped layer's arena forward,
// timed into the same counters as its other forwards.
func (w *Profiled) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return w.forward(a, x, false)
}

func (w *Profiled) forward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := w.start()
	out := runChain(a, []Layer{w.inner}, x, train)
	w.observe(t0, false)
	w.count(false)
	return out
}

// Backward implements Layer.
func (w *Profiled) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := w.start()
	out := w.inner.Backward(grad)
	w.observe(t0, true)
	w.count(true)
	return out
}

// start returns the time a profiled stage begins; free on a nil wrapper.
// The chains in cone.go time a stage's share of a fused run with it.
func (w *Profiled) start() (t0 time.Time) {
	if w != nil {
		t0 = time.Now()
	}
	return t0
}

// observe adds the time since t0 to the stage's forward or backward
// total — one chunk's share of a pass; a no-op on a nil wrapper.
func (w *Profiled) observe(t0 time.Time, backward bool) {
	if w == nil {
		return
	}
	nanos := &w.times.fwdNanos
	if backward {
		nanos = &w.times.bwdNanos
	}
	nanos.Add(int64(time.Since(t0)))
}

// count records one forward or backward pass through the stage; a no-op
// on a nil wrapper.
func (w *Profiled) count(backward bool) {
	if w == nil {
		return
	}
	calls := &w.times.fwdCalls
	if backward {
		calls = &w.times.bwdCalls
	}
	calls.Add(1)
}

// Params implements Layer.
func (w *Profiled) Params() []*Param { return w.inner.Params() }

// LayerStats is a point-in-time snapshot of one wrapped layer's cost.
type LayerStats struct {
	Name     string
	FwdCalls int64
	BwdCalls int64
	Fwd      time.Duration // total forward time
	Bwd      time.Duration // total backward time
}

// Total returns forward + backward time.
func (s LayerStats) Total() time.Duration { return s.Fwd + s.Bwd }

// Stats returns per-layer totals in wrap order.
func (p *Profiler) Stats() []LayerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]LayerStats, 0, len(p.order))
	for _, name := range p.order {
		lt := p.byKey[name]
		out = append(out, LayerStats{
			Name:     name,
			FwdCalls: lt.fwdCalls.Load(),
			BwdCalls: lt.bwdCalls.Load(),
			Fwd:      time.Duration(lt.fwdNanos.Load()),
			Bwd:      time.Duration(lt.bwdNanos.Load()),
		})
	}
	return out
}

// Reset zeroes all counters (the set of wrapped layers is kept).
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, lt := range p.byKey {
		lt.fwdCalls.Store(0)
		lt.bwdCalls.Store(0)
		lt.fwdNanos.Store(0)
		lt.bwdNanos.Store(0)
	}
}

// Table renders the per-layer breakdown as a fixed-width text table,
// sorted by total time descending, with per-call means and each layer's
// share of the summed layer time.
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
		fwdPer, bwdPer := time.Duration(0), time.Duration(0)
		if s.FwdCalls > 0 {
			fwdPer = s.Fwd / time.Duration(s.FwdCalls)
		}
		if s.BwdCalls > 0 {
			bwdPer = s.Bwd / time.Duration(s.BwdCalls)
		}
		share := 0.0
		if total > 0 {
			share = float64(s.Total()) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-24s %9d %12s %12s %12s %12s %5.1f%%\n",
			s.Name, s.FwdCalls,
			s.Fwd.Round(time.Microsecond), fwdPer.Round(time.Microsecond),
			s.Bwd.Round(time.Microsecond), bwdPer.Round(time.Microsecond),
			share)
	}
	return b.String()
}

// LayerKind names a layer by its architectural kind ("conv1d", "dense",
// "attention", "lstm", ...), for profile labels and run journals.
func LayerKind(l Layer) string {
	switch v := l.(type) {
	case *Profiled:
		return LayerKind(v.inner)
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
