package nn

import "repro/internal/tensor"

// InferArena is a record/replay bump allocator for the grad-free forward
// path. A model's inference pass requests every intermediate tensor
// through Get in a deterministic order; the arena hands out the same
// preallocated buffers on every subsequent pass over the same shapes, so
// a warmed-up forward performs zero heap allocations.
//
// The arena is shape-checked per slot: if a request's shape differs from
// what the slot holds (the model or batch size changed), the slot is
// reallocated in place and steady state resumes. Callers that serve
// multiple batch sizes should keep one arena per size instead of
// thrashing a single arena's slots.
//
// Contract:
//   - Call Reset once at the start of each forward pass.
//   - Buffers are handed out uncleared; layers must fully overwrite them
//     (every forward body that takes an arena does).
//   - Tensors returned by Get — including a model's output — are owned by
//     the arena and are only valid until the next Reset.
//   - An arena (and the layers it feeds, which keep per-call kernel state)
//     must not be used from two goroutines at once.
//
// Sequential.InferForward (core.Model's is one) runs each layer's one
// forward body on the arena, writing none of the caches Backward reads.
// The LSTM, never served, refuses an arena by name.
type InferArena struct {
	slots []*tensor.Tensor
	next  int
}

// NewInferArena returns an empty arena; slots are created on first use.
func NewInferArena() *InferArena { return &InferArena{} }

// Reset rewinds the arena so the next Get replays slot 0. Buffers are
// retained.
func (a *InferArena) Reset() { a.next = 0 }

// Get returns the next tensor slot with the given shape, allocating or
// reallocating only when the slot is missing or shaped differently. On
// the steady-state path (warm slot, matching shape) it performs no heap
// allocation: the variadic shape stays on the caller's stack. A nil arena
// hands out fresh tensors, for kernels shared with the training path.
func (a *InferArena) Get(shape ...int) *tensor.Tensor {
	if a == nil {
		return tensor.New(append([]int(nil), shape...)...)
	}
	if a.next < len(a.slots) {
		t := a.slots[a.next]
		if t != nil && slotShaped(t, shape) {
			a.next++
			return t
		}
	}
	t := tensor.New(append([]int(nil), shape...)...)
	if a.next < len(a.slots) {
		a.slots[a.next] = t
	} else {
		a.slots = append(a.slots, t)
	}
	a.next++
	return t
}

// GetLike returns the next slot shaped like t, without allocating a
// shape slice.
func (a *InferArena) GetLike(t *tensor.Tensor) *tensor.Tensor {
	var sh [4]int
	n := t.Dims()
	for i := 0; i < n; i++ {
		sh[i] = t.Dim(i)
	}
	return a.Get(sh[:n]...)
}

func slotShaped(t *tensor.Tensor, shape []int) bool {
	if t.Dims() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}
