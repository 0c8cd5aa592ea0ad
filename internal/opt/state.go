package opt

import (
	"fmt"

	"repro/internal/nn"
)

// State is a serializable snapshot of an optimizer's internal slots —
// everything beyond the parameter values themselves that a resumed
// training run needs to continue bitwise identically to an
// uninterrupted one. Slot vectors are stored in parameter order, so the
// state is portable across processes as long as the model architecture
// (and therefore Params() order) is unchanged.
type State struct {
	// Step is the global step counter (Adam's bias-correction t).
	Step int `json:"step,omitempty"`
	// Slots maps a slot name ("m", "v", "velocity", ...) to one vector
	// per parameter, in Params() order. Missing slots mean the optimizer
	// had not touched that state yet.
	Slots map[string][][]float64 `json:"slots,omitempty"`
}

// Stateful is implemented by optimizers whose internal state can be
// checkpointed and restored. All optimizers in this package implement
// it; training resume falls back to a cold optimizer (and loses bitwise
// reproducibility) when the configured optimizer does not.
type Stateful interface {
	// CaptureState snapshots the slots for the given parameters.
	CaptureState(params []*nn.Param) State
	// RestoreState reinstalls a snapshot captured with the same
	// architecture. Vectors are copied, never aliased.
	RestoreState(params []*nn.Param, s State) error
}

// captureSlot copies one per-param slot map into params order; nil
// entries mark parameters the optimizer has not initialized yet.
func captureSlot(params []*nn.Param, slot map[*nn.Param][]float64) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		if v := slot[p]; v != nil {
			out[i] = append([]float64(nil), v...)
		}
	}
	return out
}

// restoreSlot reinstalls one slot, validating vector lengths.
func restoreSlot(name string, params []*nn.Param, slot map[*nn.Param][]float64, vals [][]float64) error {
	if vals == nil {
		return nil
	}
	if len(vals) != len(params) {
		return fmt.Errorf("opt: slot %q has %d vectors, model has %d params", name, len(vals), len(params))
	}
	for i, p := range params {
		if vals[i] == nil {
			delete(slot, p)
			continue
		}
		if len(vals[i]) != p.Value.Size() {
			return fmt.Errorf("opt: slot %q param %d length %d, want %d", name, i, len(vals[i]), p.Value.Size())
		}
		slot[p] = append([]float64(nil), vals[i]...)
	}
	return nil
}

// CaptureState implements Stateful.
func (a *Adam) CaptureState(params []*nn.Param) State {
	return State{
		Step: a.t,
		Slots: map[string][][]float64{
			"m": captureSlot(params, a.m),
			"v": captureSlot(params, a.v),
		},
	}
}

// RestoreState implements Stateful.
func (a *Adam) RestoreState(params []*nn.Param, s State) error {
	if err := restoreSlot("m", params, a.m, s.Slots["m"]); err != nil {
		return err
	}
	if err := restoreSlot("v", params, a.v, s.Slots["v"]); err != nil {
		return err
	}
	a.t = s.Step
	return nil
}

// CaptureState implements Stateful.
func (s *SGD) CaptureState(params []*nn.Param) State {
	return State{Slots: map[string][][]float64{"velocity": captureSlot(params, s.velocity)}}
}

// RestoreState implements Stateful.
func (s *SGD) RestoreState(params []*nn.Param, st State) error {
	return restoreSlot("velocity", params, s.velocity, st.Slots["velocity"])
}
