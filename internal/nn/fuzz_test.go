package nn

import (
	"fmt"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// coneCase is a stack the structural fuzzer decoded: a TCN of 1–4
// blocks feeding LastStep and a linear head, and the batch it runs on.
type coneCase struct {
	k, in, window, batch int
	dilations, channels  []int
	weightNorm           bool
	dropout              float64
	seed                 uint64
}

// decodeConeCase maps fuzz bytes (missing ones read as zero) onto the
// structure: byte 0 kernel 1–5, 1 block count 1–4, 2–5 dilations 1–8,
// 6–9 channels 1–8 (a block whose width differs from its input's gets
// the 1×1 downsample), 10 input channels 1–8, 11 window 1–40, 12 batch
// 1–9, 13 weight norm (bit 0) and dropout (bits 1–2), 14 the data seed.
func decodeConeCase(data []byte) coneCase {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	c := coneCase{
		k: 1 + at(0)%5, in: 1 + at(10)%8, window: 1 + at(11)%40, batch: 1 + at(12)%9,
		weightNorm: at(13)&1 == 1,
		dropout:    []float64{0, 0.1, 0.3, 0.5}[at(13)>>1&3],
		seed:       uint64(at(14)),
	}
	for i := 0; i < 1+at(1)%4; i++ {
		c.dilations = append(c.dilations, 1+at(2+i)%8)
		c.channels = append(c.channels, 1+at(6+i)%8)
	}
	return c
}

func (c coneCase) build() *Sequential {
	r := tensor.NewRNG(c.seed)
	tcn := NewTCN(r, TCNConfig{
		InChannels: c.in, Channels: c.channels, KernelSize: c.k, Dilations: c.dilations,
		Dropout: c.dropout, WeightNorm: c.weightNorm,
	})
	return NewSequential(tcn, &LastStep{}, NewDense(r, c.channels[len(c.channels)-1], 2))
}

// FuzzConeTrainStep decodes a stack from the input and holds one
// training step through the chains — forward and backward inside the
// receptive cone, the batch split into row chunks — to the same step
// through the layer-by-layer oracle that computes every step, run at one
// pool worker: output, dx, every parameter gradient and the dropout
// streams, bitwise, with the chains at 1 and 2 workers. Then, with the
// weights moved, it holds the arena path and the eval-mode Forward to
// the oracle's forward. The seeds are the files under
// testdata/fuzz/FuzzConeTrainStep, named for the edge each one sits on;
// the batch-7/8/9 ones sit below, at and one above the chunk size.
func FuzzConeTrainStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeConeCase(data)
		r := tensor.NewRNG(c.seed + 1)
		x, grad := tensor.RandN(r, c.batch, c.in, c.window), tensor.RandN(r, c.batch, 2)
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%+v/w%d", c, workers)
			model, ref := c.build(), c.build()
			prev := par.SetWorkers(1)
			wantStep := trainStep(everyStep{ref}, x, grad)
			par.SetWorkers(workers)
			gotStep := trainStep(model, x, grad)
			requireSameStep(t, name, gotStep, wantStep, model, ref)
			nudge(model, ref)

			par.SetWorkers(1)
			want := everyStep{ref}.Forward(x, false)
			par.SetWorkers(workers)
			requireBitwiseTensors(t, model.Forward(x, false), want, name+": Forward")
			arena := NewInferArena()
			for pass := 0; pass < 2; pass++ {
				arena.Reset()
				requireBitwiseTensors(t, model.InferForward(arena, x), want, name+": arena")
			}
			par.SetWorkers(prev)
		}
	})
}
