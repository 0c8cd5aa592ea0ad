package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ChildLayers is implemented by composite layers so generic traversals
// (RNG-state checkpointing, structural inspection) can reach every
// nested layer without knowing concrete model types.
type ChildLayers interface {
	Children() []Layer
}

// RandomStream is implemented by layers that hold an internal random
// stream (Dropout, SpatialDropout1D). Checkpoint/resume must capture
// these streams: a resumed run replays the exact dropout masks of the
// uninterrupted one, which is what makes resume bitwise reproducible.
type RandomStream interface {
	RNGState() tensor.RNGState
	SetRNGState(tensor.RNGState)
}

// VisitLayers walks the layer tree rooted at l in deterministic
// pre-order (the order Children() returns), calling fn on every layer
// including the root.
func VisitLayers(l Layer, fn func(Layer)) {
	if l == nil {
		return
	}
	fn(l)
	if c, ok := l.(ChildLayers); ok {
		for _, child := range c.Children() {
			VisitLayers(child, fn)
		}
	}
}

// RNGStates collects the random-stream states of every RandomStream
// layer under m, in deterministic traversal order.
func RNGStates(m Layer) []tensor.RNGState {
	var out []tensor.RNGState
	VisitLayers(m, func(l Layer) {
		if rs, ok := l.(RandomStream); ok {
			out = append(out, rs.RNGState())
		}
	})
	return out
}

// SetRNGStates restores states captured by RNGStates on an identically
// structured model. A count mismatch means the architecture changed
// since the capture and is reported as an error.
func SetRNGStates(m Layer, states []tensor.RNGState) error {
	var streams []RandomStream
	VisitLayers(m, func(l Layer) {
		if rs, ok := l.(RandomStream); ok {
			streams = append(streams, rs)
		}
	})
	if len(streams) != len(states) {
		return fmt.Errorf("nn: model has %d random streams, snapshot has %d", len(streams), len(states))
	}
	for i, rs := range streams {
		rs.SetRNGState(states[i])
	}
	return nil
}

// Children implements ChildLayers.
func (s *Sequential) Children() []Layer { return s.Layers }

// Children implements ChildLayers.
func (t *TCN) Children() []Layer {
	out := make([]Layer, len(t.Blocks))
	for i, b := range t.Blocks {
		out[i] = b
	}
	return out
}

// Children implements ChildLayers.
func (b *TemporalBlock) Children() []Layer {
	out := []Layer{b.conv1, &b.relu1, b.drop1, b.conv2, &b.relu2, b.drop2}
	if b.downsample != nil {
		out = append(out, b.downsample)
	}
	return append(out, &b.finalReLU)
}
