package opt

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadratic builds a single-parameter "model" with loss (x−target)² and
// returns the parameter plus a function that fills its gradient.
func quadratic(start, target float64) (*nn.Param, func()) {
	p := nn.NewParam("x", tensor.FromSlice([]float64{start}, 1))
	fillGrad := func() {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - target)
	}
	return p, fillGrad
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p, grad := quadratic(10, 3)
	o := NewSGD(0.1, 0)
	for i := 0; i < 200; i++ {
		grad()
		o.Step([]*nn.Param{p})
	}
	if math.Abs(p.Value.Data[0]-3) > 1e-6 {
		t.Fatalf("SGD converged to %g, want 3", p.Value.Data[0])
	}
}

func TestSGDMomentumFasterThanPlain(t *testing.T) {
	run := func(mom float64, steps int) float64 {
		p, grad := quadratic(10, 0)
		o := NewSGD(0.01, mom)
		for i := 0; i < steps; i++ {
			grad()
			o.Step([]*nn.Param{p})
		}
		return math.Abs(p.Value.Data[0])
	}
	if run(0.9, 50) >= run(0, 50) {
		t.Fatal("momentum should accelerate convergence on a quadratic")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p, grad := quadratic(10, -2)
	o := NewAdam(0.2)
	for i := 0; i < 500; i++ {
		grad()
		o.Step([]*nn.Param{p})
	}
	if math.Abs(p.Value.Data[0]+2) > 1e-3 {
		t.Fatalf("Adam converged to %g, want -2", p.Value.Data[0])
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ≈ lr.
	p, grad := quadratic(1, 0)
	o := NewAdam(0.1)
	grad()
	o.Step([]*nn.Param{p})
	moved := 1 - p.Value.Data[0]
	if math.Abs(moved-0.1) > 1e-6 {
		t.Fatalf("first Adam step = %g, want ≈ 0.1", moved)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := nn.NewParam("x", tensor.New(2))
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4 // norm 5
	pre := ClipGradNorm([]*nn.Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %g, want 5", pre)
	}
	post := math.Hypot(p.Grad.Data[0], p.Grad.Data[1])
	if math.Abs(post-1) > 1e-12 {
		t.Fatalf("post-clip norm = %g, want 1", post)
	}
}

func TestClipGradNormBelowThresholdUntouched(t *testing.T) {
	p := nn.NewParam("x", tensor.New(1))
	p.Grad.Data[0] = 0.5
	ClipGradNorm([]*nn.Param{p}, 1)
	if p.Grad.Data[0] != 0.5 {
		t.Fatal("clip modified a gradient below the threshold")
	}
}

// Integration: a small Dense network trained with Adam must fit y = 2x+1.
func TestAdamFitsLinearFunction(t *testing.T) {
	r := tensor.NewRNG(1)
	model := nn.NewSequential(nn.NewDense(r, 1, 8), &nn.Tanh{}, nn.NewDense(r, 8, 1))
	o := NewAdam(0.01)
	loss := &nn.MSELoss{}
	x := tensor.New(32, 1)
	y := tensor.New(32, 1)
	for i := 0; i < 32; i++ {
		v := float64(i)/16 - 1
		x.Data[i] = v
		y.Data[i] = 2*v + 1
	}
	var final float64
	for epoch := 0; epoch < 800; epoch++ {
		nn.ZeroGrad(model)
		pred := model.Forward(x, true)
		final = loss.Forward(pred, y)
		model.Backward(loss.Backward())
		o.Step(model.Params())
	}
	if final > 1e-3 {
		t.Fatalf("final training loss %g, want < 1e-3", final)
	}
}
