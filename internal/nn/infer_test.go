package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// inferStacks builds one model per shape a served model takes: the TCN
// residual pipeline with attention head, pruned to the cone, that cone
// run with its stages timed, and a convolution and a TCN nobody
// takes the last step of.
func inferStacks(features int) map[string]*Sequential {
	r := tensor.NewRNG(41)
	return map[string]*Sequential{
		"rptcn-style": NewSequential(
			NewTCN(r, TCNConfig{
				InChannels: features,
				Channels:   []int{12, 8},
				KernelSize: 3,
				Dropout:    0.2,
				WeightNorm: true,
			}),
			&LastStep{},
			NewDense(r, 8, 8),
			NewFeatureAttention(r, 8),
			NewDense(r, 8, 3),
		),
		"conv": NewSequential(NewCausalConv1D(r, features, 4, 2, 1, true)),
		// Full-length inference.
		"tcn-full": NewSequential(
			NewTCN(r, TCNConfig{InChannels: features, Channels: []int{6, 6}, KernelSize: 2, WeightNorm: true}),
		),
		// Block by block, as core.Model stages them.
		"rptcn-profiled": profiledStack(NewSequential(
			NewTemporalBlock(r, TemporalBlockConfig{InChannels: features, OutChannels: 6, KernelSize: 3, Dilation: 1, WeightNorm: true}),
			NewTemporalBlock(r, TemporalBlockConfig{InChannels: 6, OutChannels: 6, KernelSize: 3, Dilation: 2, WeightNorm: true}),
			&LastStep{},
			NewDense(r, 6, 3),
		)),
	}
}

func profiledStack(s *Sequential) *Sequential {
	NewProfiler().WrapSequential(s)
	return s
}

func requireBitwiseTensors(t *testing.T, got, want *tensor.Tensor, what string) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, want %d", what, got.Size(), want.Size())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: elem %d = %g, want %g (bits %x vs %x)", what, i,
				got.Data[i], want.Data[i],
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// TestInferForwardMatchesForward demands bitwise identity between the
// arena inference path and the layer-by-layer Forward in eval mode
// (every step of every convolution; see everyStep), for every stack and
// several batch sizes on one arena, so a replayed or reshaped slot is
// handed out uncleared and must be fully overwritten.
func TestInferForwardMatchesForward(t *testing.T) {
	const features, timeSteps = 4, 12
	for name, model := range inferStacks(features) {
		t.Run(name, func(t *testing.T) {
			arena := NewInferArena()
			for _, batch := range []int{1, 3, 7} {
				r := tensor.NewRNG(uint64(100 + batch))
				x := tensor.RandN(r, batch, features, timeSteps)
				want := everyStep{model}.Forward(x, false)
				requireBitwiseTensors(t, model.Forward(x, false), want, name+" Forward")
				for pass := 0; pass < 3; pass++ {
					arena.Reset()
					got := Infer(model, arena, x)
					requireBitwiseTensors(t, got, want, name)
				}
			}
		})
	}
}

// TestInferWorkerCountInvariance reruns arena inference under 1, 2 and 4
// workers and demands bitwise identical outputs.
func TestInferWorkerCountInvariance(t *testing.T) {
	const features, timeSteps, batch = 4, 12, 5
	for name, model := range inferStacks(features) {
		t.Run(name, func(t *testing.T) {
			r := tensor.NewRNG(7)
			x := tensor.RandN(r, batch, features, timeSteps)
			run := func(workers int) *tensor.Tensor {
				prev := par.SetWorkers(workers)
				defer par.SetWorkers(prev)
				arena := NewInferArena()
				out := Infer(model, arena, x)
				return out.Clone()
			}
			base := run(1)
			for _, w := range []int{2, 4} {
				requireBitwiseTensors(t, run(w), base, name)
			}
		})
	}
}

// TestInferDoesNotDisturbTraining interleaves an arena inference between
// a training forward and its backward pass, over every layer kind a
// served model holds, and checks the gradients are bitwise identical to
// an undisturbed fit step: on the arena no forward body may touch what
// Backward reads — the convolutions' columns, the block's plan, masks
// and dropout draws, LastStep's shape, the Dense and attention inputs.
func TestInferDoesNotDisturbTraining(t *testing.T) {
	const features, timeSteps, batch = 4, 12, 3
	build := func() Layer {
		r := tensor.NewRNG(21)
		return NewSequential(
			NewCausalConv1D(r, features, 6, 3, 1, true),
			NewTemporalBlock(r, TemporalBlockConfig{InChannels: 6, OutChannels: 5, KernelSize: 3, Dilation: 2, Dropout: 0.2, WeightNorm: true}),
			&LastStep{},
			NewDense(r, 5, 6),
			NewFeatureAttention(r, 6),
			NewDense(r, 6, 2),
		)
	}
	r := tensor.NewRNG(22)
	x := tensor.RandN(r, batch, features, timeSteps)
	xInfer := tensor.RandN(r, 2, features, timeSteps-3)
	grad := tensor.RandN(r, batch, 2)

	gradsOf := func(interleave bool) []*tensor.Tensor {
		m := build()
		m.Forward(x, true)
		if interleave {
			Infer(m, NewInferArena(), xInfer)
		}
		gs := []*tensor.Tensor{m.Backward(grad.Clone())}
		for _, p := range m.Params() {
			gs = append(gs, p.Grad.Clone())
		}
		return gs
	}
	clean := gradsOf(false)
	mixed := gradsOf(true)
	for i := range clean {
		requireBitwiseTensors(t, mixed[i], clean[i], "input or param grad")
	}
}

// TestInferRefusesLayerWithoutArenaPath: a layer with no arena forward
// is refused by name, not run through Forward behind the arena's back.
func TestInferRefusesLayerWithoutArenaPath(t *testing.T) {
	r := tensor.NewRNG(23)
	model := NewSequential(NewLSTM(r, 4, 5), NewDense(r, 5, 2))
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "*nn.LSTM") {
			t.Fatalf("Infer over an LSTM: recovered %q, want a panic naming *nn.LSTM", msg)
		}
	}()
	Infer(model, NewInferArena(), tensor.RandN(r, 2, 4, 6))
}

// TestInferArenaZeroAllocSteadyState proves a warmed-up arena forward
// performs no heap allocations, for every stack and at a batch of 32.
func TestInferArenaZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	const features, timeSteps, batch = 8, 32, 32
	for name, model := range inferStacks(features) {
		t.Run(name, func(t *testing.T) {
			r := tensor.NewRNG(5)
			x := tensor.RandN(r, batch, features, timeSteps)
			arena := NewInferArena()
			for i := 0; i < 3; i++ { // warm arena slots and kernel pools
				arena.Reset()
				Infer(model, arena, x)
			}
			allocs := testing.AllocsPerRun(20, func() {
				arena.Reset()
				Infer(model, arena, x)
			})
			if allocs != 0 {
				t.Fatalf("steady-state arena inference allocates %.1f times per op, want 0", allocs)
			}
		})
	}
}

// TestInferArenaShapeChangeReallocates checks an arena survives a batch
// size change by reallocating mismatched slots, and still returns
// correct values afterwards.
func TestInferArenaShapeChangeReallocates(t *testing.T) {
	const features, timeSteps = 4, 12
	r := tensor.NewRNG(31)
	model := NewSequential(
		NewTCN(r, TCNConfig{InChannels: features, Channels: []int{6}, KernelSize: 3}),
		&LastStep{},
		NewDense(r, 6, 2),
	)
	arena := NewInferArena()
	for _, batch := range []int{4, 1, 4} {
		x := tensor.RandN(r, batch, features, timeSteps)
		want := model.Forward(x, false)
		arena.Reset()
		got := Infer(model, arena, x)
		requireBitwiseTensors(t, got, want, "after shape change")
	}
}

// BenchmarkArenaInference measures the steady-state arena forward of the
// TCN+attention stack at serving batch size; allocs/op must be 0.
func BenchmarkArenaInference(b *testing.B) {
	const features, timeSteps, batch = 8, 32, 32
	model := inferStacks(features)["rptcn-style"]
	r := tensor.NewRNG(5)
	x := tensor.RandN(r, batch, features, timeSteps)
	arena := NewInferArena()
	arena.Reset()
	Infer(model, arena, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		Infer(model, arena, x)
	}
}

// BenchmarkTrainingPathForward is BenchmarkArenaInference's model and
// shape through Forward(x, false): the same cone on the layers' own
// buffers, baking the kernels per call and allocating its results.
func BenchmarkTrainingPathForward(b *testing.B) {
	const features, timeSteps, batch = 8, 32, 32
	model := inferStacks(features)["rptcn-style"]
	r := tensor.NewRNG(5)
	x := tensor.RandN(r, batch, features, timeSteps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Forward(x, false)
	}
}
