package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation used inside temporal blocks.
type ReLU struct {
	mask []bool
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := x.Clone()
	r.size(out.Size())
	rectify(out.Data, r.mask)
	return out
}

// size readies the mask for a pass over n activations.
func (r *ReLU) size(n int) {
	if cap(r.mask) < n {
		r.mask = make([]bool, n)
	}
	r.mask = r.mask[:n]
}

// rows returns the part of the mask for h, the compact activations of the
// samples from lo on — nil when keep is false: a grad-free pass records
// nothing.
func (r *ReLU) rows(h steps, lo int, keep bool) []bool {
	if !keep {
		return nil
	}
	return r.mask[lo*h.sb : lo*h.sb+len(h.data)]
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	maskGrad(out.Data, r.mask)
	return out
}

// maskGrad zeroes, in place, the gradient of every element a rectify
// clamped; mask is what it recorded, from grad's first element on.
func maskGrad(grad []float64, mask []bool) {
	for i, pass := range mask[:len(grad)] {
		if !pass {
			grad[i] = 0
		}
	}
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	y *tensor.Tensor
}

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	t.y = x.Apply(math.Tanh)
	return t.y
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(grad.Shape()...)
	for i, g := range grad.Data {
		y := t.y.Data[i]
		out.Data[i] = g * (1 - y*y)
	}
	return out
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// softmaxRowsInto writes a numerically stable softmax of each row of the
// [batch, n] tensor x into out, each row's reduction sequential.
func softmaxRowsInto(x, out *tensor.Tensor) {
	cols := x.Dim(1)
	for r := 0; r < x.Dim(0); r++ {
		row := x.Data[r*cols : (r+1)*cols]
		orow := out.Data[r*cols : (r+1)*cols]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - maxv)
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
}
