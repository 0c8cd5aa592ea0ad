package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// InferArena32 is the float32 twin of InferArena: a record/replay bump
// allocator for the f32 serving tier. The contract is identical — Reset
// once per pass, buffers handed out uncleared and owned by the arena,
// single-goroutine use — with one addition: the float32 path has no
// Forward fallback, so every layer it feeds must implement
// Infer32Layer.
type InferArena32 struct {
	slots []*tensor.Tensor32
	next  int
}

// NewInferArena32 returns an empty arena; slots are created on first use.
func NewInferArena32() *InferArena32 { return &InferArena32{} }

// Reset rewinds the arena so the next Get replays slot 0. Buffers are
// retained.
func (a *InferArena32) Reset() { a.next = 0 }

// Slots reports how many distinct buffers the arena holds.
func (a *InferArena32) Slots() int { return len(a.slots) }

// Get returns the next tensor slot with the given shape, allocating or
// reallocating only when the slot is missing or shaped differently.
func (a *InferArena32) Get(shape ...int) *tensor.Tensor32 {
	if a.next < len(a.slots) {
		t := a.slots[a.next]
		if t != nil && slot32Shaped(t, shape) {
			a.next++
			return t
		}
	}
	t := tensor.New32(append([]int(nil), shape...)...)
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
func (a *InferArena32) GetLike(t *tensor.Tensor32) *tensor.Tensor32 {
	var sh [4]int
	n := t.Dims()
	for i := 0; i < n; i++ {
		sh[i] = t.Dim(i)
	}
	return a.Get(sh[:n]...)
}

func slot32Shaped(t *tensor.Tensor32, shape []int) bool {
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

// Infer32Layer is implemented by layers with a float32 grad-free forward
// that draws every intermediate from an InferArena32 and reads only the
// float32 weight mirrors refreshed by Quantize32. Unlike the f64 arena
// path, f32 output is not bitwise equal to Forward — it approximates it
// within the quantization error bound pinned by the tests — but it is
// bitwise deterministic in its own right: identical inputs produce
// identical float32 bits at any worker count or batch size.
type Infer32Layer interface {
	InferForward32(a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32
}

// Quantizer32 is implemented by layers carrying float64 parameters that
// must be mirrored into float32 before InferForward32 runs. Quantize32
// is cheap (one rounded copy per weight) and idempotent; call it again
// after any weight update to refresh the mirrors.
type Quantizer32 interface {
	Quantize32()
}

// Quantize32 refreshes the float32 weight mirrors of every layer under
// l that has any — the same walk Freeze takes, at the same points.
func Quantize32(l Layer) {
	VisitLayers(l, func(l Layer) {
		if q, ok := l.(Quantizer32); ok {
			q.Quantize32()
		}
	})
}

// Infer32 runs one layer's float32 arena forward. There is no Forward
// fallback: a layer without an f32 path is a configuration error, not a
// silent downgrade to float64.
func Infer32(l Layer, a *InferArena32, x *tensor.Tensor32) *tensor.Tensor32 {
	if il, ok := l.(Infer32Layer); ok {
		return il.InferForward32(a, x)
	}
	panic(fmt.Sprintf("nn: layer %T has no float32 inference path", l))
}

// SupportsInfer32 reports whether every layer reachable from l has a
// float32 inference path. Composites answer for their children.
func SupportsInfer32(l Layer) bool {
	switch v := l.(type) {
	case *Sequential:
		for _, inner := range v.Layers {
			if !SupportsInfer32(inner) {
				return false
			}
		}
		return true
	case *Profiled:
		return SupportsInfer32(v.inner)
	default:
		_, ok := l.(Infer32Layer)
		return ok
	}
}
