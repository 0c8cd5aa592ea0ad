package nn

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/tensor"
)

// FeatureAttention implements the paper's attention head (eq. 7–8):
//
//	a = f_φ(x) = softmax(x·Wᵀ + b)
//	g = a ⊙ x
//
// The attention network f_φ is a single linear map followed by softmax, so
// the layer learns to re-weight the features produced by the fully
// connected layer before the output projection. Input and output are
// [batch, features].
type FeatureAttention struct {
	W *Param // [features, features]
	B *Param // [features]

	x *tensor.Tensor // cached input
	a *tensor.Tensor // cached attention weights
}

// NewFeatureAttention creates the layer for the given feature width.
func NewFeatureAttention(r *tensor.RNG, features int) *FeatureAttention {
	return &FeatureAttention{
		W: NewParam("attn.W", XavierUniform(r, features, features, features, features)),
		B: NewParam("attn.B", tensor.New(features)),
	}
}

// Forward implements Layer.
func (f *FeatureAttention) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: FeatureAttention requires [batch, features], got %v", x.Shape()))
	}
	f.x = x
	scores := x.MatMulT(f.W.Value).AddRowVectorInPlace(f.B.Value)
	f.a = softmaxRows(scores)
	return f.a.Mul(x)
}

// Backward implements Layer.
func (f *FeatureAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	rows, cols := grad.Dim(0), grad.Dim(1)
	// dL/da = grad ⊙ x ; direct path dL/dx = grad ⊙ a.
	dA := grad.Mul(f.x)
	dx := grad.Mul(f.a)
	// Softmax Jacobian per row: ds_j = a_j (dA_j − Σ_k dA_k a_k). Rows are
	// independent, so the loop parallelizes with each row's dot product
	// reduced sequentially (worker-count independent).
	dS := tensor.New(rows, cols)
	jacobian := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			arow := f.a.Data[r*cols : (r+1)*cols]
			darow := dA.Data[r*cols : (r+1)*cols]
			dsrow := dS.Data[r*cols : (r+1)*cols]
			dot := 0.0
			for j := range arow {
				dot += darow[j] * arow[j]
			}
			for j := range arow {
				dsrow[j] = arow[j] * (darow[j] - dot)
			}
		}
	}
	if rows*cols < parFlops {
		jacobian(0, rows)
	} else {
		par.Run(rows, jacobian)
	}
	// Linear-map gradients and the indirect input path.
	dS.TMatMulAcc(f.x, f.W.Grad)
	dS.SumRowsAcc(f.B.Grad)
	dx.AddInPlace(dS.MatMul(f.W.Value))
	return dx
}

// Params implements Layer.
func (f *FeatureAttention) Params() []*Param { return []*Param{f.W, f.B} }

// Weights returns the attention vector a from the most recent forward pass
// (for inspection/visualization); nil before any forward.
func (f *FeatureAttention) Weights() *tensor.Tensor { return f.a }
