package nn

import (
	"math"

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

// lossGrain is the fixed reduction chunk size for loss forwards. The sum
// adds one partial per chunk of lossGrain elements, in chunk order, so
// its bits depend on the element count alone.
const lossGrain = 4096

// lossReduce sums f(pred[i], target[i]) over all elements: a partial sum
// per chunk, the partials added in chunk order.
func lossReduce(pred, target *tensor.Tensor, f func(p, t float64) float64) float64 {
	total := 0.0
	for lo := 0; lo < len(pred.Data); lo += lossGrain {
		hi := min(lo+lossGrain, len(pred.Data))
		s := 0.0
		for i := lo; i < hi; i++ {
			s += f(pred.Data[i], target.Data[i])
		}
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
}

// Forward implements Loss.
func (l *MSELoss) Forward(pred, target *tensor.Tensor) float64 {
	if !pred.SameShape(target) {
		panic("nn: MSELoss shape mismatch")
	}
	l.pred, l.target = pred, target
	s := lossReduce(pred, target, func(p, t float64) float64 {
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
}

// Forward implements Loss.
func (l *MAELoss) Forward(pred, target *tensor.Tensor) float64 {
	if !pred.SameShape(target) {
		panic("nn: MAELoss shape mismatch")
	}
	l.pred, l.target = pred, target
	s := lossReduce(pred, target, func(p, t float64) float64 {
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
