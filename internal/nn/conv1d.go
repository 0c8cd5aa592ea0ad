package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// CausalConv1D is a dilated causal 1-D convolution (the paper's eq. 3–4).
// Input and output have layout [batch, channels, time]; the output length
// equals the input length thanks to left zero-padding of (K−1)·d samples,
// so no future sample ever influences the present (causality).
//
// With weight normalization enabled (as in the paper's residual blocks,
// Fig. 6) the effective kernel is W = g · V/‖V‖, where the norm is taken
// per output channel; g and V are the trainable parameters.
//
// Forward lowers the convolution to one GEMM over a list of output steps
// — every step here, the receptive cone inside a temporal block (see
// cone.go) — whose A is the im2col matrix, one row per (sample, step) and
// one column per (in-channel, tap) pair. Where the listed taps lie on a
// grid that matrix is a strided view of the input, read in place;
// otherwise the taps are gathered into a copy first. Every output sample
// is a single bias-seeded FMA chain ascending over those pairs, so the
// result is row-independent — bitwise identical for any batch size and
// any worker count. Backward runs on the same kernel against the same
// matrix, so its outputs are single ascending FMA chains too and carry
// the same guarantee.
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

	// Scratch of the forward and backward kernels off the arena (see
	// cone.go), each sized for the whole batch of a pass. The batch-sized
	// buffers only ever grow (see scratch2D).
	acol      *tensor.Tensor // [b, in·k·n] gathered taps, for taps not on a grid only
	ycol      *tensor.Tensor // [b·n, out] GEMM output, bias-seeded
	gcol      *tensor.Tensor // [b·n, out] output gradient, laid out like ycol (a downsample's is its block's)
	dacol     *tensor.Tensor // [in·k, b·n] gradient w.r.t. the im2col matrix
	dwt       *tensor.Tensor // [in·k, out] gradient w.r.t. wt
	dwScratch *tensor.Tensor // [out, in, k] effective-kernel gradient

	// src is the whole batch of the last pass's taps off the arena, on
	// srcGrid: its input, or acol. paramGrads reads them in place.
	src     steps
	srcGrid tapGrid

	// wt is the effective kernel — weight norm already applied — in its
	// transposed GEMM layout; a forward rebakes it unless the convolution
	// is frozen, and then multiplies by pwt, wt packed once at Freeze
	// (nil: not frozen). taps caches the every-step tap list of the last
	// window length seen outside a temporal block.
	wt   *tensor.Tensor // [in·k, out]
	pwt  *tensor.PackedB
	taps tapList
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

// Forward implements Layer: every step of the window, through the
// kernels in cone.go (see runChain).
func (c *CausalConv1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return runChain(nil, solo(c), x, train)
}

// Backward implements Layer.
func (c *CausalConv1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return backwardChain(solo(c), grad)
}

// beginForward implements rowLayer for a convolution nobody prunes: it
// lists every step of x's window.
func (c *CausalConv1D) beginForward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	requireSeq("CausalConv1D", x)
	b, t := x.Dim(0), x.Dim(2)
	c.prepare(a, denseSteps(x.Data, b, x.Dim(1), t), c.fullTaps(t), train)
	return a.Get(b, c.OutChannels, t)
}

// forwardRows implements rowLayer.
func (c *CausalConv1D) forwardRows(a *InferArena, x, y *tensor.Tensor, lo, hi int) {
	t := x.Dim(2)
	h := c.forwardTaps(a, denseSteps(x.Data, x.Dim(0), x.Dim(1), t).rows(lo, hi), lo, c.taps)
	scatterSteps(y.Data[lo*h.c*t:], h, t)
}

// beginBackward implements rowLayer.
func (c *CausalConv1D) beginBackward(g *tensor.Tensor) *tensor.Tensor {
	b, t := g.Dim(0), g.Dim(2)
	c.fullTaps(t)
	c.readyBackward(b*t, true)
	return tensor.New(b, c.InChannels, t)
}

// backwardRows implements rowLayer: the rows of the gradient are
// gathered into the compact layout of the forward's output and handed to
// backwardTaps.
func (c *CausalConv1D) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	out, t := c.OutChannels, g.Dim(2)
	gr := c.gcol.Data[lo*t*out : hi*t*out]
	gatherSteps(compactSteps(gr, hi-lo, out, t), g.Data[lo*out*t:], t)
	c.backwardTaps(gr, denseSteps(dx.Data, dx.Dim(0), c.InChannels, t).rows(lo, hi), lo, c.taps.idx)
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
