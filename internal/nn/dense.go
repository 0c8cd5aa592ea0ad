package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b (the paper's eq. 6).
// Input is [batch, in]; output is [batch, out].
type Dense struct {
	W *Param // [out, in]
	B *Param // [out]

	x  *tensor.Tensor  // cached input for the backward pass
	pw *tensor.PackedB // W packed by Freeze; nil when not frozen
}

// NewDense creates a Dense layer with Xavier-uniform weights.
func NewDense(r *tensor.RNG, in, out int) *Dense {
	return &Dense{
		W: NewParam("dense.W", XavierUniform(r, in, out, out, in)),
		B: NewParam("dense.B", tensor.New(out)),
	}
}

// Forward implements Layer (see ForwardChain).
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return ForwardChain([]Layer{d}, x, train)
}

// InferForward implements InferLayer.
func (d *Dense) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	return InferChain(a, []Layer{d}, x)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return BackwardChain([]Layer{d}, grad)
}

// beginForward implements rowLayer. The output comes from the arena; off
// it (a == nil) it is fresh and the input is kept for the backward.
func (d *Dense) beginForward(a *InferArena, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: Dense requires [batch, features], got %v", x.Shape()))
	}
	if train {
		d.pw = nil // the weights are about to move
	}
	if a == nil {
		d.x = x
	}
	return a.Get(x.Dim(0), d.W.Value.Dim(0))
}

// forwardRows is the layer's one forward body.
func (d *Dense) forwardRows(_ *InferArena, x, y *tensor.Tensor, lo, hi int) {
	out := y.Rows(lo, hi)
	if d.pw != nil {
		x.Rows(lo, hi).MatMulPackedInto(d.pw, out)
	} else {
		x.Rows(lo, hi).MatMulTInto(d.W.Value, out)
	}
	out.AddRowVectorInPlace(d.B.Value)
}

// beginBackward implements rowLayer.
func (d *Dense) beginBackward(g *tensor.Tensor) *tensor.Tensor {
	d.pw = nil
	return tensor.New(g.Dim(0), d.W.Value.Dim(1))
}

// backwardRows implements rowLayer: dx = grad · W.
func (d *Dense) backwardRows(g, dx *tensor.Tensor, lo, hi int) {
	g.Rows(lo, hi).MatMulInto(d.W.Value, dx.Rows(lo, hi))
}

// paramGrads implements rowLayer: dW = gradᵀ · x ; db = column sums of
// grad.
func (d *Dense) paramGrads(g *tensor.Tensor, _ int) {
	g.TMatMulAcc(d.x, d.W.Grad)
	g.SumRowsAcc(d.B.Grad)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
