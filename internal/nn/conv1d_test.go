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

// referenceConvForward is the convolution straight from its definition
// (eq. 3–4): y[b,co,t] = bias[co] + Σ w[co,ci,kk]·x[b,ci,t−(k−1−kk)·d],
// reads before the window being zero.
func referenceConvForward(c *CausalConv1D, x, w *tensor.Tensor) *tensor.Tensor {
	b, t := x.Dim(0), x.Dim(2)
	in, out, k, d := c.InChannels, c.OutChannels, c.KernelSize, c.Dilation
	y := tensor.New(b, out, t)
	for bi := 0; bi < b; bi++ {
		for co := 0; co < out; co++ {
			for tt := 0; tt < t; tt++ {
				acc := c.B.Value.Data[co]
				for ci := 0; ci < in; ci++ {
					for kk := 0; kk < k; kk++ {
						if q := tt - (k-1-kk)*d; q >= 0 {
							acc += w.Data[(co*in+ci)*k+kk] * x.Data[(bi*in+ci)*t+q]
						}
					}
				}
				y.Data[(bi*out+co)*t+tt] = acc
			}
		}
	}
	return y
}

// denseConv is the full-length convolution CausalConv1D trained on
// before the step-list kernel of cone.go replaced it — shift-copy every
// channel into columns, one GEMM, scatter back; gather the gradient, two
// GEMMs, col2im by tap offset — demoted to the bitwise oracle of that
// kernel with every step listed. It knows nothing of tap lists.
type denseConv struct {
	c        *CausalConv1D
	acol, wt *tensor.Tensor
}

func (o *denseConv) forward(x *tensor.Tensor) *tensor.Tensor {
	c := o.c
	in, out, k, d := c.InChannels, c.OutChannels, c.KernelSize, c.Dilation
	b, t := x.Dim(0), x.Dim(2)
	kk, m := in*k, b*t
	o.acol, o.wt = tensor.New(kk, m), tensor.New(kk, out)
	for p := 0; p < kk; p++ { // unrollCols
		off := min((k-1-p%k)*d, t)
		for bi := 0; bi < b; bi++ {
			seg := o.acol.Data[(p*b+bi)*t : (p*b+bi+1)*t]
			copy(seg[off:], x.Data[(bi*in+p/k)*t:(bi*in+p/k)*t+t-off])
		}
	}
	w := c.effectiveKernel()
	for p := 0; p < kk; p++ {
		for co := 0; co < out; co++ {
			o.wt.Data[p*out+co] = w.Data[co*kk+p]
		}
	}
	ycol := tensor.New(m, out)
	for i := 0; i < m; i++ {
		copy(ycol.Data[i*out:(i+1)*out], c.B.Value.Data)
	}
	o.acol.TMatMulAcc(o.wt, ycol)
	y := tensor.New(b, out, t)
	for u := 0; u < b*out; u++ { // scatterRows
		for tt := 0; tt < t; tt++ {
			y.Data[u*t+tt] = ycol.Data[(u/out*t+tt)*out+u%out]
		}
	}
	return y
}

func (o *denseConv) backward(grad *tensor.Tensor) *tensor.Tensor {
	c := o.c
	in, out, k, d := c.InChannels, c.OutChannels, c.KernelSize, c.Dilation
	b, t := grad.Dim(0), grad.Dim(2)
	kk, m := in*k, b*t
	gcol := tensor.New(m, out)
	for u := 0; u < b*out; u++ {
		for tt, g := range grad.Data[u*t : (u+1)*t] {
			gcol.Data[(u/out*t+tt)*out+u%out] = g
		}
	}
	for i := 0; i < m; i++ {
		for co, g := range gcol.Data[i*out : (i+1)*out] {
			c.B.Grad.Data[co] += g
		}
	}
	dwt, dW := tensor.New(kk, out), tensor.New(out, in, k)
	o.acol.MatMulInto(gcol, dwt)
	for p := 0; p < kk; p++ {
		for co, v := range dwt.Data[p*out : (p+1)*out] {
			dW.Data[co*kk+p] = v
		}
	}
	c.accumulateKernelGrad(dW)
	dacol := tensor.New(kk, m)
	o.wt.MatMulTInto(gcol, dacol)
	dx := tensor.New(b, in, t)
	for u := 0; u < b*in; u++ { // foldCols
		bi, ci := u/in, u%in
		for tap := 0; tap < k; tap++ {
			off := (k - 1 - tap) * d
			if off >= t {
				continue
			}
			src := dacol.Data[((ci*k+tap)*b+bi)*t+off : ((ci*k+tap)*b+bi+1)*t]
			for i, v := range src {
				dx.Data[u*t+i] += v
			}
		}
	}
	return dx
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

// convCases reach every edge of the lowering: the 1×1 downsample,
// batches that are not a multiple of the GEMM's 4-row panel, and taps
// that lie wholly in the causal padding ((k−1)·d ≥ t).
var convCases = []struct{ in, out, k, d, b, t int }{
	{12, 16, 3, 2, 32, 32}, // the RPTCN block shape
	{12, 16, 1, 1, 5, 9},   // 1×1 downsample
	{3, 5, 3, 1, 1, 7},
	{2, 3, 2, 4, 7, 11},
	{4, 9, 3, 4, 3, 8}, // first tap's offset == t: all padding
	{5, 2, 4, 3, 6, 5}, // two taps past the window
	{1, 1, 3, 8, 2, 4}, // only the last tap ever sees data
	{2, 2, 5, 1, 3, 1}, // a window of one step
}

// TestCausalConv1DMatchesDenseOracle holds the step-list kernel with
// every step listed — what Forward and Backward of a bare convolution
// run, and what the layer-by-layer oracles of the cone tests are built
// from — bitwise to the full-length path it replaced, over three steps
// with moving weights, weight norm on and off, at 1, 2 and 4 workers.
func TestCausalConv1DMatchesDenseOracle(t *testing.T) {
	for _, tc := range convCases {
		for _, wn := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("in%d_out%d_k%d_d%d_b%d_t%d_wn%v_w%d", tc.in, tc.out, tc.k, tc.d, tc.b, tc.t, wn, workers)
				prev := par.SetWorkers(workers)
				c := NewCausalConv1D(tensor.NewRNG(31), tc.in, tc.out, tc.k, tc.d, wn)
				ref := &denseConv{c: NewCausalConv1D(tensor.NewRNG(31), tc.in, tc.out, tc.k, tc.d, wn)}
				r := tensor.NewRNG(33)
				for step := 0; step < 3; step++ {
					x := tensor.RandN(r, tc.b, tc.in, tc.t)
					grad := tensor.RandN(r, tc.b, tc.out, tc.t)
					ZeroGrad(c)
					ZeroGrad(ref.c)
					requireBitwiseTensors(t, c.Forward(x, true), ref.forward(x), name+" output")
					requireBitwiseTensors(t, c.Backward(grad), ref.backward(grad), name+" dx")
					for i, p := range c.Params() {
						requireBitwiseTensors(t, p.Grad, ref.c.Params()[i].Grad, name+" "+p.Name)
					}
					nudge(c, ref.c)
				}
				par.SetWorkers(prev)
			}
		}
	}
}

// TestCausalConv1DBackwardMatchesReference checks the GEMM-lowered
// forward and backward against the scalar loop nests of the definition
// over convCases, weight norm on and off.
func TestCausalConv1DBackwardMatchesReference(t *testing.T) {
	for _, tc := range convCases {
		for _, wn := range []bool{false, true} {
			t.Run(fmt.Sprintf("in%d_out%d_k%d_d%d_b%d_t%d_wn%v", tc.in, tc.out, tc.k, tc.d, tc.b, tc.t, wn), func(t *testing.T) {
				c := NewCausalConv1D(tensor.NewRNG(31), tc.in, tc.out, tc.k, tc.d, wn)
				ref := NewCausalConv1D(tensor.NewRNG(31), tc.in, tc.out, tc.k, tc.d, wn)
				r := tensor.NewRNG(32)
				x := tensor.RandN(r, tc.b, tc.in, tc.t)
				grad := tensor.RandN(r, tc.b, tc.out, tc.t)

				y := c.Forward(x, true)
				dx := c.Backward(grad)
				requireClose(t, y, referenceConvForward(c, x, c.effectiveKernel()), 1e-12, "output")

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
