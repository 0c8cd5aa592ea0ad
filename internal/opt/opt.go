// Package opt provides the first-order optimizers (Adam, which trains
// every deep model here, and SGD) and gradient clipping for the nn
// package.
package opt

import (
	"math"

	"repro/internal/nn"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and advances internal state.
	Step(params []*nn.Param)
	// LR returns the learning rate.
	LR() float64
}

// SGD is stochastic gradient descent with optional classical momentum.
type SGD struct {
	Rate     float64
	Momentum float64

	velocity map[*nn.Param][]float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{Rate: lr, Momentum: momentum, velocity: map[*nn.Param][]float64{}}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		if s.Momentum == 0 {
			for i, g := range p.Grad.Data {
				p.Value.Data[i] -= s.Rate * g
			}
			continue
		}
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, p.Value.Size())
			s.velocity[p] = v
		}
		for i, g := range p.Grad.Data {
			v[i] = s.Momentum*v[i] - s.Rate*g
			p.Value.Data[i] += v[i]
		}
	}
}

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.Rate }

// Adam is the Adam optimizer (Kingma & Ba 2015) with bias correction —
// the optimizer used for all deep models in the experiments, matching the
// Keras default the paper relies on.
type Adam struct {
	Rate    float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*nn.Param][]float64
	v map[*nn.Param][]float64
}

// NewAdam returns Adam with the standard defaults β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		Rate: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: map[*nn.Param][]float64{}, v: map[*nn.Param][]float64{},
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float64, p.Value.Size())
			v = make([]float64, p.Value.Size())
			a.m[p] = m
			a.v[p] = v
		}
		for i, g := range p.Grad.Data {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Value.Data[i] -= a.Rate * mh / (math.Sqrt(vh) + a.Epsilon)
		}
	}
}

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.Rate }

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm. Essential for stable LSTM
// training on high-dynamic series.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return norm
}
