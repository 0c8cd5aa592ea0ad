package nn

import (
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// Loss is a differentiable scalar objective over (prediction, target).
type Loss interface {
	// Forward returns the scalar loss.
	Forward(pred, target *tensor.Tensor) float64
	// Backward returns dLoss/dPred for the most recent Forward. The
	// returned tensor is owned by the loss and reused by the next
	// Backward call; consume it before calling Backward again.
	Backward() *tensor.Tensor
}

// lossGrain is the fixed reduction chunk size for loss forwards. Chunk
// boundaries depend only on the element count, and the per-chunk partial
// sums are folded in chunk-index order, so the loss value is bitwise
// identical for any worker count (see internal/par).
const lossGrain = 4096

// lossReduce sums f(pred[i], target[i]) over all elements via the
// deterministic chunked reduction. partials is a scratch slice reused
// across calls.
func lossReduce(pred, target *tensor.Tensor, partials *[]float64, f func(p, t float64) float64) float64 {
	n := pred.Size()
	chunks := par.NumChunks(n, lossGrain)
	if cap(*partials) < chunks {
		*partials = make([]float64, chunks)
	}
	parts := (*partials)[:chunks]
	par.RunChunks(n, lossGrain, func(chunk, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += f(pred.Data[i], target.Data[i])
		}
		parts[chunk] = s
	})
	total := 0.0
	for _, s := range parts {
		total += s
	}
	return total
}

// lossGrad fills the reused gradient buffer elementwise.
func lossGrad(pred *tensor.Tensor, buf **tensor.Tensor, f func(i int) float64) *tensor.Tensor {
	if *buf == nil || !(*buf).SameShape(pred) {
		*buf = tensor.NewLike(pred)
	}
	out := *buf
	for i := range out.Data {
		out.Data[i] = f(i)
	}
	return out
}

// MSELoss is the mean squared error (eq. 9), the paper's training
// objective.
type MSELoss struct {
	pred, target *tensor.Tensor
	grad         *tensor.Tensor
	partials     []float64
}

// Forward implements Loss.
func (l *MSELoss) Forward(pred, target *tensor.Tensor) float64 {
	if !pred.SameShape(target) {
		panic("nn: MSELoss shape mismatch")
	}
	l.pred, l.target = pred, target
	s := lossReduce(pred, target, &l.partials, func(p, t float64) float64 {
		d := p - t
		return d * d
	})
	return s / float64(pred.Size())
}

// Backward implements Loss.
func (l *MSELoss) Backward() *tensor.Tensor {
	n := float64(l.pred.Size())
	pred, target := l.pred, l.target
	return lossGrad(pred, &l.grad, func(i int) float64 {
		return 2 * (pred.Data[i] - target.Data[i]) / n
	})
}

// MAELoss is the mean absolute error (eq. 10). At zero residual the
// subgradient 0 is used.
type MAELoss struct {
	pred, target *tensor.Tensor
	grad         *tensor.Tensor
	partials     []float64
}

// Forward implements Loss.
func (l *MAELoss) Forward(pred, target *tensor.Tensor) float64 {
	if !pred.SameShape(target) {
		panic("nn: MAELoss shape mismatch")
	}
	l.pred, l.target = pred, target
	s := lossReduce(pred, target, &l.partials, func(p, t float64) float64 {
		return math.Abs(p - t)
	})
	return s / float64(pred.Size())
}

// Backward implements Loss.
func (l *MAELoss) Backward() *tensor.Tensor {
	n := float64(l.pred.Size())
	pred, target := l.pred, l.target
	return lossGrad(pred, &l.grad, func(i int) float64 {
		switch d := pred.Data[i] - target.Data[i]; {
		case d > 0:
			return 1 / n
		case d < 0:
			return -1 / n
		default:
			return 0
		}
	})
}
