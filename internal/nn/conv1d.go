package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// parFlops is the mul-add count above which nn kernels fan out onto the
// internal/par pool — the same crossover as the tensor matmuls (see the
// tuning comment on parallelFlops in internal/tensor/matmul.go).
const parFlops = 32 * 64 * 64

// CausalConv1D is a dilated causal 1-D convolution (the paper's eq. 3–4).
// Input and output have layout [batch, channels, time]; the output length
// equals the input length thanks to left zero-padding of (K−1)·d samples,
// so no future sample ever influences the present (causality).
//
// With weight normalization enabled (as in the paper's residual blocks,
// Fig. 6) the effective kernel is W = g · V/‖V‖, where the norm is taken
// per output channel; g and V are the trainable parameters.
//
// Forward lowers the convolution to one GEMM (im2col): the input is
// unrolled into a column matrix with one row per (in-channel, tap) pair
// and the packed tensor kernel does the arithmetic. Every output sample
// is a single bias-seeded FMA chain ascending over those pairs, so the
// result is row-independent — bitwise identical for any batch size and
// any worker count. Backward runs on the same kernel against the columns
// Forward unrolled (see Backward), so its outputs are single ascending
// FMA chains too and carry the same guarantee.
type CausalConv1D struct {
	InChannels  int
	OutChannels int
	KernelSize  int
	Dilation    int
	WeightNorm  bool

	// Direct parameterization (WeightNorm == false).
	W *Param // [out, in, k]
	// Weight-normalized parameterization (WeightNorm == true).
	V *Param // [out, in, k] direction
	G *Param // [out] magnitude
	B *Param // [out] bias

	wEffBuf *tensor.Tensor // reused storage for the effective kernel under weight norm
	vNorms  []float64      // per-output-channel ‖V‖ from the last forward
	padLeft int

	// im2col scratch for the training forward. Backward reads acol and
	// wtr as the forward left them. The b·t-sized buffers only ever grow
	// (see scratch2D).
	acol *tensor.Tensor // [in·k, b·t] unrolled input columns
	wtr  *tensor.Tensor // [in·k, out] transposed effective kernel
	ycol *tensor.Tensor // [b·t, out] GEMM output, bias-seeded

	// Operands for the parallel unroll/scatter stages, read through
	// closures bound once so repeated passes allocate nothing.
	gemmX, gemmAcol, gemmYcol, gemmY *tensor.Tensor
	colRun, outRun                   func(lo, hi int)

	// Backward scratch, reused across steps.
	gcol      *tensor.Tensor // [b·t, out] output gradient, gathered like ycol
	dacol     *tensor.Tensor // [in·k, b·t] gradient w.r.t. acol
	dwt       *tensor.Tensor // [in·k, out] gradient w.r.t. wtr
	dwScratch *tensor.Tensor // [out, in, k] effective-kernel gradient

	// Inference state (see cone.go). wtInfer is the effective kernel —
	// weight norm already applied — in its transposed GEMM layout; while
	// frozen it is reused as baked, otherwise rebaked per call. taps
	// caches the full-length tap list of the last window length served.
	wtInfer *tensor.Tensor // [in·k, out]
	frozen  bool
	taps    []int
}

// NewCausalConv1D builds the layer with He-normal initialization
// (fan-in = inChannels·kernelSize, matching the ReLU blocks it feeds).
func NewCausalConv1D(r *tensor.RNG, in, out, kernel, dilation int, weightNorm bool) *CausalConv1D {
	if kernel < 1 || dilation < 1 {
		panic(fmt.Sprintf("nn: invalid conv kernel=%d dilation=%d", kernel, dilation))
	}
	c := &CausalConv1D{
		InChannels:  in,
		OutChannels: out,
		KernelSize:  kernel,
		Dilation:    dilation,
		WeightNorm:  weightNorm,
		B:           NewParam("conv.B", tensor.New(out)),
		padLeft:     (kernel - 1) * dilation,
	}
	w := HeNormal(r, in*kernel, out, in, kernel)
	if weightNorm {
		// Initialize g to the norms of the He-initialized kernel so that the
		// effective weights at step 0 equal the plain initialization.
		c.V = NewParam("conv.V", w)
		g := tensor.New(out)
		for co := 0; co < out; co++ {
			g.Data[co] = kernelNorm(w, co, in, kernel)
		}
		c.G = NewParam("conv.G", g)
	} else {
		c.W = NewParam("conv.W", w)
	}
	return c
}

// kernelNorm returns ‖V[co]‖₂ over the (in, k) slice for output channel co.
func kernelNorm(v *tensor.Tensor, co, in, k int) float64 {
	base := co * in * k
	s := 0.0
	for i := 0; i < in*k; i++ {
		x := v.Data[base+i]
		s += x * x
	}
	return math.Sqrt(s)
}

// effectiveKernel computes W from (V, g) under weight normalization into a
// reused buffer, or returns the direct W.
func (c *CausalConv1D) effectiveKernel() *tensor.Tensor {
	if !c.WeightNorm {
		return c.W.Value
	}
	in, k, out := c.InChannels, c.KernelSize, c.OutChannels
	if c.wEffBuf == nil {
		c.wEffBuf = tensor.New(out, in, k)
	}
	w := c.wEffBuf
	if cap(c.vNorms) < out {
		c.vNorms = make([]float64, out)
	}
	c.vNorms = c.vNorms[:out]
	for co := 0; co < out; co++ {
		n := kernelNorm(c.V.Value, co, in, k)
		if n < 1e-12 {
			n = 1e-12
		}
		c.vNorms[co] = n
		scale := c.G.Value.Data[co] / n
		base := co * in * k
		for i := 0; i < in*k; i++ {
			w.Data[base+i] = c.V.Value.Data[base+i] * scale
		}
	}
	return w
}

// Forward implements Layer.
func (c *CausalConv1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		c.frozen = false // the weights are about to move
	}
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: CausalConv1D requires [batch, channels, time], got %v", x.Shape()))
	}
	if x.Dim(1) != c.InChannels {
		panic(fmt.Sprintf("nn: CausalConv1D channel mismatch: input %d, layer %d", x.Dim(1), c.InChannels))
	}
	b, t := x.Dim(0), x.Dim(2)
	in, out, k := c.InChannels, c.OutChannels, c.KernelSize
	kk, m := in*k, b*t
	c.acol = scratch2D(c.acol, kk, m)
	c.ycol = scratch2D(c.ycol, m, out)
	if c.wtr == nil {
		c.wtr = tensor.New(kk, out)
	}
	y := tensor.New(b, out, t)
	c.convGemm(x, c.effectiveKernel(), c.acol, c.wtr, c.ycol, y)
	return y
}

// scratch2D returns a [rows, cols] scratch tensor, reusing buf's storage
// whenever its capacity suffices: a layer that alternates between batch
// sizes (training batches, the larger evaluation batches, a ragged last
// batch) settles on one allocation instead of reallocating at every
// switch. Contents are unspecified.
func scratch2D(buf *tensor.Tensor, rows, cols int) *tensor.Tensor {
	switch {
	case buf == nil || cap(buf.Data) < rows*cols:
		return tensor.New(rows, cols)
	case buf.Dim(0) == rows && buf.Dim(1) == cols:
		return buf
	}
	return tensor.FromSlice(buf.Data[:rows*cols], rows, cols)
}

// convGemm is the training forward kernel; inference runs the same
// arithmetic at the steps it needs (inferTaps in cone.go). The causal
// convolution is lowered to one GEMM: x is unrolled into acol
// (one row per (in-channel, tap) pair, left-padded with zeros), the
// effective kernel is transposed into wt, ycol rows are seeded with the
// bias, and the packed kernel accumulates ycol += acolᵀ·wt — each output
// sample one FMA chain ascending over (in-channel, tap) — before the
// result is scattered back to the [batch, channel, time] layout.
func (c *CausalConv1D) convGemm(x, w, acol, wt, ycol, y *tensor.Tensor) {
	in, out, k := c.InChannels, c.OutChannels, c.KernelSize
	b, t := x.Dim(0), x.Dim(2)
	kk, m := in*k, b*t

	if c.colRun == nil {
		c.colRun = func(lo, hi int) { c.unrollCols(c.gemmX, c.gemmAcol, lo, hi) }
		c.outRun = func(lo, hi int) { c.scatterRows(c.gemmYcol, c.gemmY, lo, hi) }
	}
	c.gemmX, c.gemmAcol, c.gemmYcol, c.gemmY = x, acol, ycol, y
	if kk*m < parFlops {
		c.unrollCols(x, acol, 0, kk)
	} else {
		par.Run(kk, c.colRun)
	}

	for p := 0; p < kk; p++ {
		wrow := wt.Data[p*out : (p+1)*out]
		for co := 0; co < out; co++ {
			wrow[co] = w.Data[co*kk+p]
		}
	}
	bias := c.B.Value.Data[:out]
	for i := 0; i < m; i++ {
		copy(ycol.Data[i*out:(i+1)*out], bias)
	}
	acol.TMatMulAcc(wt, ycol)

	units := b * out
	if m*out < parFlops {
		c.scatterRows(ycol, y, 0, units)
	} else {
		par.Run(units, c.outRun)
	}
}

// unrollCols fills acol rows [lo, hi): row p = (ci·k + kk) holds channel
// ci of the input shifted right by the tap offset (K−1−kk)·d, with the
// causal left padding written as zeros. Rows are disjoint, so the stage
// parallelizes without any cross-worker reduction.
func (c *CausalConv1D) unrollCols(x, acol *tensor.Tensor, lo, hi int) {
	in, k, d := c.InChannels, c.KernelSize, c.Dilation
	b, t := x.Dim(0), x.Dim(2)
	for p := lo; p < hi; p++ {
		ci, kk := p/k, p%k
		off := (k - 1 - kk) * d
		if off > t {
			off = t
		}
		dst := acol.Data[p*b*t : (p+1)*b*t]
		for bi := 0; bi < b; bi++ {
			seg := dst[bi*t : (bi+1)*t]
			for i := 0; i < off; i++ {
				seg[i] = 0
			}
			xrow := x.Data[(bi*in+ci)*t : (bi*in+ci)*t+t]
			copy(seg[off:], xrow[:t-off])
		}
	}
}

// scatterRows copies GEMM output rows back into the [batch, channel,
// time] layout for (batch, out-channel) units [lo, hi). Each unit owns
// one disjoint output row of y.
func (c *CausalConv1D) scatterRows(ycol, y *tensor.Tensor, lo, hi int) {
	out := c.OutChannels
	t := y.Dim(2)
	for u := lo; u < hi; u++ {
		bi, co := u/out, u%out
		yrow := y.Data[u*t : (u+1)*t]
		base := bi*t*out + co
		for tt := 0; tt < t; tt++ {
			yrow[tt] = ycol.Data[base+tt*out]
		}
	}
}

// Backward implements Layer. Both products run on the packed GEMM
// against what Forward cached: with the output gradient gathered into
// gcol (the layout of ycol), the kernel gradient is dwt = acol·gcol and
// the gradient of the unrolled columns is dacol = wtr·gcolᵀ, which
// foldCols sums back onto the input positions each column was copied
// from. Every element of dwt and dacol is one ascending FMA chain and
// every dx element a fixed ascending sum over taps, so the results do
// not depend on the worker count, and a sample's dx row does not depend
// on the rest of the batch.
func (c *CausalConv1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.frozen = false
	b, t := grad.Dim(0), grad.Dim(2)
	in, out, k := c.InChannels, c.OutChannels, c.KernelSize
	kk, m := in*k, b*t
	c.gcol = scratch2D(c.gcol, m, out)
	c.dacol = scratch2D(c.dacol, kk, m)
	if c.dwt == nil {
		c.dwt = tensor.New(kk, out)
		c.dwScratch = tensor.New(out, in, k)
	}

	// The inverse of scatterRows, then dB as gcol's column sums.
	gcol := c.gcol.Data
	for u := 0; u < b*out; u++ {
		grow := grad.Data[u*t : (u+1)*t]
		base := u/out*t*out + u%out
		for tt, g := range grow {
			gcol[base+tt*out] = g
		}
	}
	db := c.B.Grad.Data[:out]
	for i := 0; i < m; i++ {
		for co, g := range gcol[i*out : (i+1)*out] {
			db[co] += g
		}
	}

	c.acol.MatMulInto(c.gcol, c.dwt)
	dW := c.dwScratch
	for p := 0; p < kk; p++ {
		for co, v := range c.dwt.Data[p*out : (p+1)*out] {
			dW.Data[co*kk+p] = v
		}
	}
	c.accumulateKernelGrad(dW)

	c.wtr.MatMulTInto(c.gcol, c.dacol)
	dx := tensor.New(b, in, t)
	c.foldCols(c.dacol, dx)
	return dx
}

// foldCols is the adjoint of unrollCols (col2im): row p = (ci·k + kk) of
// dacol is added onto channel ci of dx shifted back by that tap's
// offset. Taps whose offset reaches past the window only ever saw
// padding and contribute nothing.
func (c *CausalConv1D) foldCols(dacol, dx *tensor.Tensor) {
	in, k, d := c.InChannels, c.KernelSize, c.Dilation
	b, t := dx.Dim(0), dx.Dim(2)
	for u := 0; u < b*in; u++ {
		bi, ci := u/in, u%in
		dxrow := dx.Data[u*t : (u+1)*t]
		for kk := 0; kk < k; kk++ {
			off := (k - 1 - kk) * d
			if off >= t {
				continue
			}
			src := dacol.Data[((ci*k+kk)*b+bi)*t+off : ((ci*k+kk)*b+bi+1)*t]
			for i, v := range src {
				dxrow[i] += v
			}
		}
	}
}

// accumulateKernelGrad routes the gradient w.r.t. the effective kernel into
// either W directly or through the weight-normalization reparameterization.
func (c *CausalConv1D) accumulateKernelGrad(dW *tensor.Tensor) {
	if !c.WeightNorm {
		c.W.Grad.AddInPlace(dW)
		return
	}
	in, k, out := c.InChannels, c.KernelSize, c.OutChannels
	per := in * k
	for co := 0; co < out; co++ {
		base := co * per
		n := c.vNorms[co]
		g := c.G.Value.Data[co]
		// dg = dW · (V/‖V‖)
		dot := 0.0
		for i := 0; i < per; i++ {
			dot += dW.Data[base+i] * c.V.Value.Data[base+i]
		}
		dg := dot / n
		c.G.Grad.Data[co] += dg
		// dV = g/‖V‖ · dW − g·(dW·V)/‖V‖³ · V
		a := g / n
		bcoef := g * dot / (n * n * n)
		for i := 0; i < per; i++ {
			c.V.Grad.Data[base+i] += a*dW.Data[base+i] - bcoef*c.V.Value.Data[base+i]
		}
	}
}

// Params implements Layer.
func (c *CausalConv1D) Params() []*Param {
	if c.WeightNorm {
		return []*Param{c.V, c.G, c.B}
	}
	return []*Param{c.W, c.B}
}

// ReceptiveField returns the number of past samples (including the current
// one) that influence one output sample: (K−1)·d + 1.
func (c *CausalConv1D) ReceptiveField() int {
	return (c.KernelSize-1)*c.Dilation + 1
}
