package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// referenceConvBackward is the scalar loop nest CausalConv1D.Backward ran
// before it was lowered onto the packed GEMM, kept as the oracle: it
// returns dx, the gradient of the effective kernel w and the bias
// gradient, straight from the definition of the convolution.
func referenceConvBackward(c *CausalConv1D, x, w, grad *tensor.Tensor) (dx, dW, dB *tensor.Tensor) {
	b, t := x.Dim(0), x.Dim(2)
	in, out, k, d := c.InChannels, c.OutChannels, c.KernelSize, c.Dilation
	dx = tensor.New(b, in, t)
	dW = tensor.New(out, in, k)
	dB = tensor.New(out)
	for bi := 0; bi < b; bi++ {
		for co := 0; co < out; co++ {
			grow := grad.Data[(bi*out+co)*t : (bi*out+co+1)*t]
			for _, g := range grow {
				dB.Data[co] += g
			}
			for ci := 0; ci < in; ci++ {
				xrow := x.Data[(bi*in+ci)*t : (bi*in+ci+1)*t]
				dxrow := dx.Data[(bi*in+ci)*t : (bi*in+ci+1)*t]
				for kk := 0; kk < k; kk++ {
					off := (k - 1 - kk) * d
					wv := w.Data[(co*in+ci)*k+kk]
					acc := 0.0
					for tt := off; tt < t; tt++ {
						acc += grow[tt] * xrow[tt-off]
						dxrow[tt-off] += grow[tt] * wv
					}
					dW.Data[(co*in+ci)*k+kk] += acc
				}
			}
		}
	}
	return dx, dW, dB
}

// requireClose demands |got−want| ≤ tol·max|want| elementwise.
func requireClose(t *testing.T, got, want *tensor.Tensor, tol float64, what string) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, want %d", what, got.Size(), want.Size())
	}
	scale := 0.0
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	for i, v := range want.Data {
		if math.Abs(got.Data[i]-v) > tol*scale {
			t.Fatalf("%s[%d] = %.17g, want %.17g (scale %.3g)", what, i, got.Data[i], v, scale)
		}
	}
}

// TestCausalConv1DBackwardMatchesReference checks the GEMM-lowered
// backward against the scalar oracle over shapes that reach every edge of
// the lowering: the 1×1 downsample, weight norm on and off, batches that
// are not a multiple of the GEMM's 4-row panel, and taps that lie wholly
// in the causal padding ((k−1)·d ≥ t).
func TestCausalConv1DBackwardMatchesReference(t *testing.T) {
	cases := []struct{ in, out, k, d, b, t int }{
		{12, 16, 3, 2, 32, 32}, // the RPTCN block shape
		{12, 16, 1, 1, 5, 9},   // 1×1 downsample
		{3, 5, 3, 1, 1, 7},
		{2, 3, 2, 4, 7, 11},
		{4, 9, 3, 4, 3, 8}, // first tap's offset == t: all padding
		{5, 2, 4, 3, 6, 5}, // two taps past the window
		{1, 1, 3, 8, 2, 4}, // only the last tap ever sees data
	}
	for _, tc := range cases {
		for _, wn := range []bool{false, true} {
			t.Run(fmt.Sprintf("in%d_out%d_k%d_d%d_b%d_t%d_wn%v", tc.in, tc.out, tc.k, tc.d, tc.b, tc.t, wn), func(t *testing.T) {
				c := NewCausalConv1D(tensor.NewRNG(31), tc.in, tc.out, tc.k, tc.d, wn)
				ref := NewCausalConv1D(tensor.NewRNG(31), tc.in, tc.out, tc.k, tc.d, wn)
				r := tensor.NewRNG(32)
				x := tensor.RandN(r, tc.b, tc.in, tc.t)
				grad := tensor.RandN(r, tc.b, tc.out, tc.t)

				c.Forward(x, true)
				dx := c.Backward(grad)

				// The oracle's kernel gradient goes through the same
				// weight-norm reparameterization as the layer's.
				ref.Forward(x, true)
				wantDx, wantDW, wantDB := referenceConvBackward(ref, x, ref.effectiveKernel(), grad)
				ref.accumulateKernelGrad(wantDW)
				ref.B.Grad.AddInPlace(wantDB)

				requireClose(t, dx, wantDx, 1e-12, "dx")
				for i, p := range c.Params() {
					requireClose(t, p.Grad, ref.Params()[i].Grad, 1e-12, p.Name)
				}
			})
		}
	}
}

// convStep runs one forward+backward of a fresh, identically seeded
// convolution and returns dx followed by every parameter gradient.
func convStep(x, grad *tensor.Tensor) []*tensor.Tensor {
	c := NewCausalConv1D(tensor.NewRNG(41), x.Dim(1), grad.Dim(1), 3, 2, true)
	c.Forward(x, true)
	out := []*tensor.Tensor{c.Backward(grad)}
	for _, p := range c.Params() {
		out = append(out, p.Grad)
	}
	return out
}

// TestCausalConv1DBackwardInvariance pins the two guarantees the GEMM
// lowering gives the backward pass: every result is bitwise identical at
// 1, 2 and 4 workers (at a shape large enough for both products to fan
// out), and a sample's dx row does not depend on what else is in the
// batch.
func TestCausalConv1DBackwardInvariance(t *testing.T) {
	const batch, in, out, steps = 32, 12, 16, 32
	r := tensor.NewRNG(42)
	x := tensor.RandN(r, batch, in, steps)
	grad := tensor.RandN(r, batch, out, steps)

	run := func(workers int) []*tensor.Tensor {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		return convStep(x, grad)
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		for i, got := range run(w) {
			requireBitwiseTensors(t, got, base[i], fmt.Sprintf("workers=%d tensor %d", w, i))
		}
	}

	for _, i := range []int{0, 13, batch - 1} {
		xi := tensor.FromSlice(x.Data[i*in*steps:(i+1)*in*steps], 1, in, steps)
		gi := tensor.FromSlice(grad.Data[i*out*steps:(i+1)*out*steps], 1, out, steps)
		want := tensor.FromSlice(base[0].Data[i*in*steps:(i+1)*in*steps], 1, in, steps)
		requireBitwiseTensors(t, convStep(xi, gi)[0], want, fmt.Sprintf("dx row %d alone vs in batch", i))
	}
}
