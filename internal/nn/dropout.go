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
	requireSeq("SpatialDropout1D", x)
	if !d.draw(x.Dim(0)*x.Dim(1), train) {
		return x
	}
	out := x.Clone()
	d.scale(denseSteps(out.Data, x.Dim(0), x.Dim(1), x.Dim(2)), 0)
	return out
}

// draw replaces the mask with a fresh one — one random per (batch,
// channel), bc of them in that order — and reports whether dropout is
// in force. Outside training, or with P == 0, it draws nothing and
// clears the mask.
func (d *SpatialDropout1D) draw(bc int, train bool) bool {
	if !train || d.P == 0 {
		d.mask = nil
		return false
	}
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
	d.scale(denseSteps(out.Data, grad.Dim(0), grad.Dim(1), grad.Dim(2)), 0)
	return out
}

// scale applies the mask to x, the batch's samples from lo on, in place,
// in either layout (see steps) — forward and backward are the same map:
// every position of a dropped (batch, channel) becomes zero, those of a
// kept one are rescaled. With no mask in force it leaves x alone.
func (d *SpatialDropout1D) scale(x steps, lo int) {
	if d.mask == nil {
		return
	}
	for bi := 0; bi < x.b; bi++ {
		mask := d.mask[(lo+bi)*x.c : (lo+bi+1)*x.c]
		for pos := 0; pos < x.n(); pos++ {
			at := x.data[bi*x.sb+pos*x.sp:]
			for ci, m := range mask {
				if m == 0 {
					at[ci*x.sc] = 0
				} else {
					at[ci*x.sc] *= m
				}
			}
		}
	}
}

// Params implements Layer.
func (d *SpatialDropout1D) Params() []*Param { return nil }
