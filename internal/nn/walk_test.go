package nn

import (
	"testing"

	"repro/internal/tensor"
)

func buildDropoutModel(seed uint64) (Layer, *tensor.RNG) {
	r := tensor.NewRNG(seed)
	model := NewSequential(
		NewTCN(r, TCNConfig{InChannels: 2, Channels: []int{4, 4}, KernelSize: 3, Dropout: 0.2}),
		&LastStep{},
		NewDropout(r, 0.3),
		NewDense(r, 4, 1),
	)
	return model, r
}

func TestVisitLayersReachesNestedDropouts(t *testing.T) {
	model, _ := buildDropoutModel(1)
	var streams int
	VisitLayers(model, func(l Layer) {
		if _, ok := l.(RandomStream); ok {
			streams++
		}
	})
	// Two TCN blocks with two spatial dropouts each, plus the top Dropout.
	if streams != 5 {
		t.Fatalf("found %d random streams, want 5", streams)
	}
}

func TestRNGStatesRoundTrip(t *testing.T) {
	model, _ := buildDropoutModel(2)
	x := tensor.RandN(tensor.NewRNG(3), 4, 2, 8)

	before := RNGStates(model)
	first := model.Forward(x, true).Clone()

	// Rewind the streams and replay: dropout masks must be identical.
	if err := SetRNGStates(model, before); err != nil {
		t.Fatal(err)
	}
	second := model.Forward(x, true)
	for i := range first.Data {
		if first.Data[i] != second.Data[i] {
			t.Fatalf("replayed forward diverged at %d: %g vs %g", i, first.Data[i], second.Data[i])
		}
	}
}

func TestRNGStatesAdvance(t *testing.T) {
	model, _ := buildDropoutModel(4)
	x := tensor.RandN(tensor.NewRNG(5), 2, 2, 8)
	before := RNGStates(model)
	model.Forward(x, true)
	after := RNGStates(model)
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Fatal("training forward did not advance any dropout stream")
	}
}

func TestSetRNGStatesCountMismatch(t *testing.T) {
	model, _ := buildDropoutModel(6)
	if err := SetRNGStates(model, RNGStates(model)[:2]); err == nil {
		t.Fatal("expected error for state-count mismatch")
	}
}

// TestProfiledIsTransparentToWalk: the timers belong to the chain, so a
// profiled model walks as it did unprofiled.
func TestProfiledIsTransparentToWalk(t *testing.T) {
	model, _ := buildDropoutModel(7)
	NewProfiler().WrapSequential(model.(*Sequential))
	if got := len(RNGStates(model)); got != 5 {
		t.Fatalf("profiled walk found %d streams, want 5", got)
	}
}
