package nn

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// composedBlockStep runs the block's data path one public Layer call at
// a time — every stage out of place, the way the block itself ran before
// its epilogues moved in place — and returns the output and dx.
func composedBlockStep(b *TemporalBlock, x, grad *tensor.Tensor, train bool) (y, dx *tensor.Tensor) {
	h := b.conv1.Forward(x, train)
	h = b.relu1.Forward(h, train)
	h = b.drop1.Forward(h, train)
	h = b.conv2.Forward(h, train)
	h = b.relu2.Forward(h, train)
	h = b.drop2.Forward(h, train)
	res := x
	if b.downsample != nil {
		res = b.downsample.Forward(x, train)
	}
	y = b.finalReLU.Forward(h.Add(res), train)

	g := b.finalReLU.Backward(grad)
	gf := b.drop2.Backward(g)
	gf = b.relu2.Backward(gf)
	gf = b.conv2.Backward(gf)
	gf = b.drop1.Backward(gf)
	gf = b.relu1.Backward(gf)
	dx = b.conv1.Backward(gf)
	if b.downsample != nil {
		dx.AddInPlace(b.downsample.Backward(g))
	} else {
		dx.AddInPlace(g)
	}
	return y, dx
}

// TestTemporalBlockInPlaceMatchesComposition demands that the in-place
// block is bitwise the composition of its public layers, with dropout
// active: same output, same gradients, and — because the in-place path
// draws the masks SpatialDropout1D.Forward would draw, in the same order
// — the same random-stream states afterwards, which is what keeps a
// checkpoint's RNGStates resuming bitwise. It also checks that neither
// pass writes a tensor the caller owns.
func TestTemporalBlockInPlaceMatchesComposition(t *testing.T) {
	for _, inCh := range []int{5, 6} { // with and without the 1×1 downsample
		t.Run(fmt.Sprintf("in%d", inCh), func(t *testing.T) {
			cfg := TemporalBlockConfig{
				InChannels: inCh, OutChannels: 6, KernelSize: 3, Dilation: 2, Dropout: 0.4, WeightNorm: true,
			}
			blk := NewTemporalBlock(tensor.NewRNG(51), cfg)
			ref := NewTemporalBlock(tensor.NewRNG(51), cfg)
			r := tensor.NewRNG(52)
			x := tensor.RandN(r, 7, inCh, 11)
			grad := tensor.RandN(r, 7, 6, 11)
			x0, grad0 := x.Clone(), grad.Clone()

			for step := 0; step < 3; step++ { // successive masks must agree too
				ZeroGrad(blk)
				ZeroGrad(ref)
				y := blk.Forward(x, true)
				dx := blk.Backward(grad)
				wantY, wantDx := composedBlockStep(ref, x, grad, true)

				requireBitwiseTensors(t, y, wantY, "output")
				requireBitwiseTensors(t, dx, wantDx, "dx")
				for i, p := range blk.Params() {
					requireBitwiseTensors(t, p.Grad, ref.Params()[i].Grad, p.Name)
				}
				for i, d := range [][2]*SpatialDropout1D{{blk.drop1, ref.drop1}, {blk.drop2, ref.drop2}} {
					if got, want := d[0].mask, d[1].mask; !slices.Equal(got, want) {
						t.Fatalf("drop%d: mask %v, want %v", i+1, got, want)
					}
				}
				got, want := RNGStates(blk), RNGStates(ref)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("random stream %d diverged after step %d", i, step)
					}
				}
				requireBitwiseTensors(t, x, x0, "caller's input")
				requireBitwiseTensors(t, grad, grad0, "caller's gradient")
			}
		})
	}
}

// blockStep runs one forward+backward of a fresh, identically seeded
// block and returns the output, dx and every parameter gradient.
func blockStep(x *tensor.Tensor, dropout float64) []*tensor.Tensor {
	blk := NewTemporalBlock(tensor.NewRNG(61), TemporalBlockConfig{
		InChannels: x.Dim(1), OutChannels: 16, KernelSize: 3, Dilation: 2, Dropout: dropout, WeightNorm: true,
	})
	y := blk.Forward(x, true)
	out := []*tensor.Tensor{y, blk.Backward(y)}
	for _, p := range blk.Params() {
		out = append(out, p.Grad)
	}
	return out
}

// TestTemporalBlockInvariance reruns a training step of the block (with
// dropout) at 1, 2 and 4 workers and demands bitwise identical outputs
// and gradients, then checks row independence: a sample's output and dx
// rows are the same alone as inside a batch of 32.
func TestTemporalBlockInvariance(t *testing.T) {
	const batch, in, steps = 32, 12, 32
	x := tensor.RandN(tensor.NewRNG(62), batch, in, steps)

	run := func(workers int) []*tensor.Tensor {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		return blockStep(x, 0.1)
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		for i, got := range run(w) {
			requireBitwiseTensors(t, got, base[i], fmt.Sprintf("workers=%d tensor %d", w, i))
		}
	}

	// Dropout draws one random per (batch, channel), so rows are only
	// comparable across batch compositions with it off.
	full := blockStep(x, 0)
	for _, i := range []int{0, 13, batch - 1} {
		alone := blockStep(tensor.FromSlice(x.Data[i*in*steps:(i+1)*in*steps], 1, in, steps), 0)
		for j, what := range []string{"output", "dx"} {
			per := full[j].Size() / batch
			want := tensor.FromSlice(full[j].Data[i*per:(i+1)*per], per)
			requireBitwiseTensors(t, alone[j], want, fmt.Sprintf("%s row %d alone vs in batch", what, i))
		}
	}
}
