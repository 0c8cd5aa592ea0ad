package nn

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func TestProfiledPreservesSemantics(t *testing.T) {
	r := tensor.NewRNG(7)
	plain := NewDense(r, 4, 3)
	wrapped := NewProfiler().Wrap("dense", plain).(*Profiled)

	x := tensor.New(2, 4)
	for i := range x.Data {
		x.Data[i] = float64(i) * 0.1
	}
	out := wrapped.Forward(x, true)
	grad := tensor.New(out.Shape()...)
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	wrapped.Backward(grad)

	// Params must be the wrapped layer's own (same pointers), so
	// optimizers and serialization see through the wrapper.
	ps, inner := wrapped.Params(), plain.Params()
	if len(ps) != len(inner) {
		t.Fatalf("params: %d vs %d", len(ps), len(inner))
	}
	for i := range ps {
		if ps[i] != inner[i] {
			t.Fatalf("param %d not shared through wrapper", i)
		}
	}
	if wrapped.inner != Layer(plain) {
		t.Fatal("the wrapper lost the inner layer")
	}
}

func TestProfilerAccumulates(t *testing.T) {
	p := NewProfiler()
	r := tensor.NewRNG(1)
	l := p.Wrap("fc", NewDense(r, 8, 8))
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
	if s.Name != "fc" || s.FwdCalls != 5 || s.BwdCalls != 5 {
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
	a := p.Wrap("dense", NewDense(r, 4, 4))
	b := p.Wrap("dense", NewDense(r, 4, 4))
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
	l := NewDense(r, 2, 2)
	if got := p.Wrap("x", l); got != Layer(l) {
		t.Fatal("nil profiler must return the layer unchanged")
	}
	p.WrapSequential(NewSequential(l)) // must not panic
}

func TestWrapSequentialNamesByKind(t *testing.T) {
	p := NewProfiler()
	r := tensor.NewRNG(4)
	s := NewSequential(
		NewLSTM(r, 2, 4, false),
		NewDense(r, 4, 1),
	)
	p.WrapSequential(s)
	for _, l := range s.Layers {
		if _, ok := l.(*Profiled); !ok {
			t.Fatalf("layer %T not wrapped", l)
		}
	}
	x := tensor.New(1, 2, 6)
	s.Forward(x, false)
	stats := p.Stats()
	if len(stats) != 2 || stats[0].Name != "0:lstm" || stats[1].Name != "1:dense" {
		t.Fatalf("unexpected names: %+v", stats)
	}
	table := p.Table()
	if !strings.Contains(table, "0:lstm") || !strings.Contains(table, "share") {
		t.Fatalf("table missing content:\n%s", table)
	}
}
