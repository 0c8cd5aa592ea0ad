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

	x *tensor.Tensor // cached input for the backward pass
}

// NewDense creates a Dense layer with Xavier-uniform weights.
func NewDense(r *tensor.RNG, in, out int) *Dense {
	return &Dense{
		W: NewParam("dense.W", XavierUniform(r, in, out, out, in)),
		B: NewParam("dense.B", tensor.New(out)),
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return d.forward(nil, x) }

// InferForward implements InferLayer.
func (d *Dense) InferForward(a *InferArena, x *tensor.Tensor) *tensor.Tensor { return d.forward(a, x) }

// forward is the layer's one body. The output comes from the arena; off
// it (a == nil) it is fresh and the input is kept for Backward.
func (d *Dense) forward(a *InferArena, x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: Dense requires [batch, features], got %v", x.Shape()))
	}
	if a == nil {
		d.x = x
	}
	out := a.Get(x.Dim(0), d.W.Value.Dim(0))
	x.MatMulTInto(d.W.Value, out)
	return out.AddRowVectorInPlace(d.B.Value)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	// dW = gradᵀ · x ;  db = column sums of grad ;  dx = grad · W.
	grad.TMatMulAcc(d.x, d.W.Grad)
	grad.SumRowsAcc(d.B.Grad)
	return grad.MatMul(d.W.Value)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
