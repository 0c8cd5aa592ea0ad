package nn

import (
	"testing"

	"repro/internal/tensor"
)

// The conv/LSTM/attention benchmarks run at batch 32 under their
// original names plus batch 64 and 256 variants, the sizes where the
// parallel kernels engage on multi-core runners.

func benchCausalConv1DForward(b *testing.B, batch int) {
	r := tensor.NewRNG(1)
	c := NewCausalConv1D(r, 12, 16, 3, 2, true)
	x := tensor.RandN(r, batch, 12, 32)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Forward(x, false)
	}
}

func BenchmarkCausalConv1DForward(b *testing.B)         { benchCausalConv1DForward(b, 32) }
func BenchmarkCausalConv1DForwardBatch64(b *testing.B)  { benchCausalConv1DForward(b, 64) }
func BenchmarkCausalConv1DForwardBatch256(b *testing.B) { benchCausalConv1DForward(b, 256) }

func benchCausalConv1DBackward(b *testing.B, batch int) {
	r := tensor.NewRNG(2)
	c := NewCausalConv1D(r, 12, 16, 3, 2, true)
	x := tensor.RandN(r, batch, 12, 32)
	y := c.Forward(x, true)
	g := tensor.RandN(r, y.Shape()...)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ZeroGrad(c)
		c.Backward(g)
	}
}

func BenchmarkCausalConv1DBackward(b *testing.B)         { benchCausalConv1DBackward(b, 32) }
func BenchmarkCausalConv1DBackwardBatch64(b *testing.B)  { benchCausalConv1DBackward(b, 64) }
func BenchmarkCausalConv1DBackwardBatch256(b *testing.B) { benchCausalConv1DBackward(b, 256) }

func BenchmarkTemporalBlockForwardBackward(b *testing.B) {
	r := tensor.NewRNG(3)
	blk := NewTemporalBlock(r, TemporalBlockConfig{
		InChannels: 12, OutChannels: 16, KernelSize: 3, Dilation: 2, Dropout: 0.1, WeightNorm: true,
	})
	x := tensor.RandN(r, 32, 12, 32)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ZeroGrad(blk)
		y := blk.Forward(x, true)
		blk.Backward(y)
	}
}

func benchLSTM(b *testing.B, batch int) {
	r := tensor.NewRNG(4)
	l := NewLSTM(r, 12, 32)
	x := tensor.RandN(r, batch, 12, 32)
	g := tensor.RandN(r, batch, 32)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ZeroGrad(l)
		l.Forward(x, true)
		l.Backward(g)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B)         { benchLSTM(b, 32) }
func BenchmarkLSTMForwardBackwardBatch64(b *testing.B)  { benchLSTM(b, 64) }
func BenchmarkLSTMForwardBackwardBatch256(b *testing.B) { benchLSTM(b, 256) }

func BenchmarkDenseForward(b *testing.B) {
	r := tensor.NewRNG(6)
	d := NewDense(r, 64, 64)
	x := tensor.RandN(r, 128, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Forward(x, false)
	}
}

func benchFeatureAttention(b *testing.B, batch int) {
	r := tensor.NewRNG(7)
	a := NewFeatureAttention(r, 64)
	x := tensor.RandN(r, batch, 64)
	g := tensor.RandN(r, batch, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ZeroGrad(a)
		a.Forward(x, true)
		a.Backward(g)
	}
}

func BenchmarkFeatureAttentionForwardBackward(b *testing.B)         { benchFeatureAttention(b, 128) }
func BenchmarkFeatureAttentionForwardBackwardBatch64(b *testing.B)  { benchFeatureAttention(b, 64) }
func BenchmarkFeatureAttentionForwardBackwardBatch256(b *testing.B) { benchFeatureAttention(b, 256) }
