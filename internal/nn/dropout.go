package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Dropout zeroes each element independently with probability P during
// training and rescales survivors by 1/(1−P) (inverted dropout), so
// inference needs no correction.
type Dropout struct {
	P   float64
	rng *tensor.RNG

	mask []float64
}

// NewDropout builds a Dropout layer with its own random stream.
func NewDropout(r *tensor.RNG, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %g out of [0,1)", p))
	}
	return &Dropout{P: p, rng: r.Split()}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		d.mask = nil
		return x
	}
	if cap(d.mask) < x.Size() {
		d.mask = make([]float64, x.Size())
	}
	d.mask = d.mask[:x.Size()]
	keep := 1 / (1 - d.P)
	out := tensor.New(x.Shape()...)
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
		} else {
			d.mask[i] = keep
			out.Data[i] = v * keep
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	out := tensor.New(grad.Shape()...)
	for i, g := range grad.Data {
		out.Data[i] = g * d.mask[i]
	}
	return out
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// SpatialDropout1D zeroes entire channels of a [batch, channels, time]
// tensor with probability P — the regularizer the TCN paper (and Fig. 6 of
// RPTCN) uses inside residual blocks, where adjacent time steps are highly
// correlated and elementwise dropout would be ineffective.
type SpatialDropout1D struct {
	P   float64
	rng *tensor.RNG

	mask []float64 // per (batch, channel) keep-scale
}

// NewSpatialDropout1D builds the layer with its own random stream.
func NewSpatialDropout1D(r *tensor.RNG, p float64) *SpatialDropout1D {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %g out of [0,1)", p))
	}
	return &SpatialDropout1D{P: p, rng: r.Split()}
}

// Forward implements Layer.
func (d *SpatialDropout1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !d.draw(x, train) {
		return x
	}
	out := x.Clone()
	d.scale(out)
	return out
}

// draw replaces the mask with a fresh one for x — one random per
// (batch, channel), in that order — and reports whether dropout is in
// force. Outside training, or with P == 0, it draws nothing and clears
// the mask.
func (d *SpatialDropout1D) draw(x *tensor.Tensor, train bool) bool {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: SpatialDropout1D requires [batch, channels, time], got %v", x.Shape()))
	}
	if !train || d.P == 0 {
		d.mask = nil
		return false
	}
	bc := x.Dim(0) * x.Dim(1)
	if cap(d.mask) < bc {
		d.mask = make([]float64, bc)
	}
	d.mask = d.mask[:bc]
	keep := 1 / (1 - d.P)
	for i := range d.mask {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
		} else {
			d.mask[i] = keep
		}
	}
	return true
}

// Backward implements Layer.
func (d *SpatialDropout1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	out := grad.Clone()
	d.scale(out)
	return out
}

// scale applies the mask to x in place — forward and backward are the
// same map: dropped (batch, channel) rows become zero, kept rows are
// rescaled. With no mask in force it leaves x alone.
func (d *SpatialDropout1D) scale(x *tensor.Tensor) {
	if d.mask == nil {
		return
	}
	t := x.Size() / len(d.mask)
	for bc, m := range d.mask {
		row := x.Data[bc*t : (bc+1)*t]
		if m == 0 {
			clear(row)
			continue
		}
		for i := range row {
			row[i] *= m
		}
	}
}

// Params implements Layer.
func (d *SpatialDropout1D) Params() []*Param { return nil }
