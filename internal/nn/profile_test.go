package nn

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestProfiledPreservesSemantics: timing a chain changes no bit of its
// forward, its input gradient or its parameter gradients, and leaves the
// layers and their parameters as they were. The batch of 12 runs as row
// chunks through a block run, LastStep, dropout and Dense.
func TestProfiledPreservesSemantics(t *testing.T) {
	build := func() *Sequential {
		r := tensor.NewRNG(7)
		return NewSequential(
			NewTCN(r, TCNConfig{InChannels: 2, Channels: []int{4, 4}, KernelSize: 3, Dropout: 0.2, WeightNorm: true}),
			&LastStep{},
			NewDense(r, 4, 3),
		)
	}
	plain, timed := build(), build()
	layers := append([]Layer(nil), timed.Layers...)
	p := NewProfiler()
	p.WrapSequential(timed)
	for i, l := range timed.Layers {
		if l != layers[i] {
			t.Fatalf("layer %d replaced by %T", i, l)
		}
	}
	x := tensor.RandN(tensor.NewRNG(8), 12, 2, 10)
	for step := 0; step < 2; step++ {
		want, got := plain.Forward(x, true), timed.Forward(x, true)
		requireBitwiseTensors(t, got, want, "forward")
		g := tensor.RandN(tensor.NewRNG(9), want.Shape()...)
		requireBitwiseTensors(t, timed.Backward(g), plain.Backward(g), "input gradient")
	}
	ps, qs := timed.Params(), plain.Params()
	for i := range ps {
		for j, v := range qs[i].Grad.Data {
			if math.Float64bits(ps[i].Grad.Data[j]) != math.Float64bits(v) {
				t.Fatalf("%s grad %d: %g, want %g", ps[i].Name, j, ps[i].Grad.Data[j], v)
			}
		}
	}
	for _, s := range p.Stats() {
		if s.FwdCalls != 2 || s.BwdCalls != 2 {
			t.Errorf("step %s: %d forward and %d backward calls, want 2 each", s.Name, s.FwdCalls, s.BwdCalls)
		}
	}
}

func TestProfilerAccumulates(t *testing.T) {
	p := NewProfiler()
	r := tensor.NewRNG(1)
	l := NewSequential(NewDense(r, 8, 8))
	p.WrapSequential(l)
	x := tensor.New(4, 8)
	for i := 0; i < 5; i++ {
		out := l.Forward(x, true)
		l.Backward(tensor.New(out.Shape()...))
	}
	stats := p.Stats()
	if len(stats) != 1 {
		t.Fatalf("got %d entries", len(stats))
	}
	s := stats[0]
	if s.Name != "0:dense" || s.FwdCalls != 5 || s.BwdCalls != 5 {
		t.Fatalf("bad stats: %+v", s)
	}
	if s.Fwd <= 0 || s.Bwd <= 0 {
		t.Fatalf("no time accumulated: %+v", s)
	}
	p.Reset()
	if got := p.Stats()[0]; got.FwdCalls != 0 || got.Fwd != 0 {
		t.Fatalf("Reset did not zero: %+v", got)
	}
}

func TestProfilerSharedNameMergesAndIsConcurrencySafe(t *testing.T) {
	p := NewProfiler()
	r := tensor.NewRNG(2)
	a := NewSequential(NewDense(r, 4, 4))
	b := NewSequential(NewDense(r, 4, 4))
	p.WrapSequential(a, "dense")
	p.WrapSequential(b, "dense")
	x := tensor.New(1, 4)
	var wg sync.WaitGroup
	for _, l := range []Layer{a, b} {
		wg.Add(1)
		go func(l Layer) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Forward(x, false)
			}
		}(l)
	}
	done := make(chan struct{})
	go func() { // concurrent reader under -race
		defer close(done)
		for i := 0; i < 50; i++ {
			p.Stats()
			p.Table()
		}
	}()
	wg.Wait()
	<-done
	stats := p.Stats()
	if len(stats) != 1 {
		t.Fatalf("duplicate name created %d entries", len(stats))
	}
	if stats[0].FwdCalls != 200 {
		t.Fatalf("merged calls = %d, want 200", stats[0].FwdCalls)
	}
}

func TestNilProfilerIsPassthrough(t *testing.T) {
	var p *Profiler
	r := tensor.NewRNG(3)
	s := NewSequential(NewDense(r, 2, 2))
	p.WrapSequential(s) // must not panic
	p.WrapSequential(nil)
	if s.timers != nil {
		t.Fatal("a nil profiler timed the chain")
	}
}

// TestWrapSequentialNamesByKind names the steps by index and kind, and
// times each over a batch that splits into row chunks: a standalone ReLU
// like the LSTM and the Dense around it, one call each way per pass,
// with time on both. Profiling twice counts once.
func TestWrapSequentialNamesByKind(t *testing.T) {
	p := NewProfiler()
	r := tensor.NewRNG(4)
	s := NewSequential(
		NewLSTM(r, 2, 4),
		&ReLU{},
		NewDense(r, 4, 1),
	)
	p.WrapSequential(s)
	p.WrapSequential(s)
	x := tensor.New(12, 2, 6)
	out := s.Forward(x, true)
	s.Backward(tensor.Full(1, out.Shape()...))
	stats := p.Stats()
	if len(stats) != 3 || stats[0].Name != "0:lstm" || stats[1].Name != "1:relu" || stats[2].Name != "2:dense" {
		t.Fatalf("unexpected names: %+v", stats)
	}
	for _, st := range stats {
		if st.FwdCalls != 1 || st.BwdCalls != 1 {
			t.Errorf("%s: %d forward and %d backward calls, want 1 each", st.Name, st.FwdCalls, st.BwdCalls)
		}
		if st.Fwd <= 0 || st.Bwd <= 0 {
			t.Errorf("%s: no time recorded (fwd %v, bwd %v)", st.Name, st.Fwd, st.Bwd)
		}
	}
	table := p.Table()
	if !strings.Contains(table, "0:lstm") || !strings.Contains(table, "share") {
		t.Fatalf("table missing content:\n%s", table)
	}
}

// TestTableKeepsSubMicrosecondMeans: a step that averages ~300 ns a call
// prints that mean, not 0s, and a step of milliseconds a call prints its
// mean to the microsecond.
func TestTableKeepsSubMicrosecondMeans(t *testing.T) {
	p := NewProfiler()
	fast := p.timer("fast")
	fast.fwdCalls.Store(1000)
	fast.fwdNanos.Store(312_345)
	fast.bwdCalls.Store(1000)
	fast.bwdNanos.Store(298_765)
	slow := p.timer("slow")
	slow.fwdCalls.Store(2)
	slow.fwdNanos.Store(10_804_374)
	table := p.Table()
	for _, want := range []string{"310ns", "300ns", "5.402ms"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table lacks the per-call mean %s:\n%s", want, table)
		}
	}
}
