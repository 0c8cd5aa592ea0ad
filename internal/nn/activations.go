package nn

import (
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// ReLU is the rectified linear activation used inside temporal blocks.
type ReLU struct {
	mask []bool
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := x.Clone()
	rectify(out.Data, r.passMask(out.Size(), true))
	return out
}

// passMask sizes and returns the mask the next rectify of n activations
// records for maskGrad — nil when keep is false: a grad-free pass
// records nothing.
func (r *ReLU) passMask(n int, keep bool) []bool {
	if !keep {
		return nil
	}
	if cap(r.mask) < n {
		r.mask = make([]bool, n)
	}
	r.mask = r.mask[:n]
	return r.mask
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	r.maskGrad(out.Data)
	return out
}

// maskGrad zeroes, in place, the gradient of every element the last
// recorded rectify clamped.
func (r *ReLU) maskGrad(grad []float64) {
	for i, pass := range r.mask {
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
// [batch, n] tensor x into out, parallelized across rows (each row's
// reduction stays sequential, so results do not depend on the worker
// count). The row kernel is a named function so the small-size inline
// path (the one arena inference takes) allocates no closure.
func softmaxRowsInto(x, out *tensor.Tensor) {
	rows, cols := x.Dim(0), x.Dim(1)
	// math.Exp costs ~10× a mul-add, so the parallel bar is lower than for
	// matmuls.
	if rows*cols < parFlops/8 {
		softmaxRowsRange(x, out, cols, 0, rows)
	} else {
		par.Run(rows, func(lo, hi int) { softmaxRowsRange(x, out, cols, lo, hi) })
	}
}

func softmaxRowsRange(x, out *tensor.Tensor, cols, lo, hi int) {
	for r := lo; r < hi; r++ {
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
