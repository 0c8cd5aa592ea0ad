package opt

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// stepTwice runs two optimizer steps with fixed gradients.
func stepTwice(o Optimizer, params []*nn.Param) {
	for s := 0; s < 2; s++ {
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = 0.1 * float64(i+1)
			}
		}
		o.Step(params)
	}
}

func newParams() []*nn.Param {
	a := nn.NewParam("a", tensor.RandN(tensor.NewRNG(1), 3, 2))
	b := nn.NewParam("b", tensor.RandN(tensor.NewRNG(2), 4))
	return []*nn.Param{a, b}
}

// TestStateRoundTripBitwise: capture state mid-run, clone into a fresh
// optimizer, and verify further steps are bitwise identical — the
// contract training resume relies on.
func TestStateRoundTripBitwise(t *testing.T) {
	builders := map[string]func() Optimizer{
		"adam": func() Optimizer { return NewAdam(1e-2) },
		"sgd":  func() Optimizer { return NewSGD(1e-2, 0.9) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			ref := build()
			refParams := newParams()
			stepTwice(ref, refParams)
			st := ref.(Stateful).CaptureState(refParams)

			fresh := build()
			freshParams := newParams()
			// Match parameter values, then install the captured slots.
			for i := range freshParams {
				freshParams[i].Value.CopyFrom(refParams[i].Value)
			}
			if err := fresh.(Stateful).RestoreState(freshParams, st); err != nil {
				t.Fatal(err)
			}

			stepTwice(ref, refParams)
			stepTwice(fresh, freshParams)
			for i := range refParams {
				for j := range refParams[i].Value.Data {
					a, b := refParams[i].Value.Data[j], freshParams[i].Value.Data[j]
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("param %d[%d] diverged after restore: %g vs %g", i, j, a, b)
					}
				}
			}
		})
	}
}

func TestRestoreStateRejectsShapeMismatch(t *testing.T) {
	o := NewAdam(1e-2)
	params := newParams()
	stepTwice(o, params)
	st := o.CaptureState(params)
	st.Slots["m"][0] = st.Slots["m"][0][:2]
	if err := NewAdam(1e-2).RestoreState(newParams(), st); err == nil {
		t.Fatal("expected error for slot length mismatch")
	}
}
