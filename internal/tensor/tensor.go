// Package tensor provides dense, row-major float64 tensors and the numeric
// kernels the neural-network stack is built on. It is deliberately small:
// shapes are explicit, there is no implicit broadcasting beyond the few
// documented helpers, and every kernel runs on its caller and is
// deterministic: an output row's bits do not depend on which other rows
// the call carries, so a pass may split its batch across workers (see
// internal/nn/chain.go) without changing a bit.
package tensor

import (
	"fmt"
	"strings"
)

// MaxRank is the highest tensor rank the package supports. Shapes and
// strides are stored inline (no per-tensor slice allocations), which keeps
// a tensor at two heap objects: the header and the data.
const MaxRank = 4

// Tensor is a dense row-major array of float64 with an explicit shape.
// The zero value is an empty tensor; use the constructors to build one.
type Tensor struct {
	shape   [MaxRank]int
	strides [MaxRank]int
	rank    int
	Data    []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative or the rank exceeds MaxRank.
func New(shape ...int) *Tensor {
	t := &Tensor{}
	n := t.setShape(shape)
	t.Data = make([]float64, n)
	return t
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{}
	n := t.setShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	t.Data = data
	return t
}

// NewLike returns a zero-filled tensor with the same shape as t.
func NewLike(t *Tensor) *Tensor {
	return &Tensor{shape: t.shape, strides: t.strides, rank: t.rank, Data: make([]float64, len(t.Data))}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// setShape validates shape, stores it inline with its strides, and returns
// the element count.
func (t *Tensor) setShape(shape []int) int {
	if len(shape) > MaxRank {
		panic(fmt.Sprintf("tensor: rank %d exceeds MaxRank %d", len(shape), MaxRank))
	}
	n := 1
	for i, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		t.shape[i] = d
		n *= d
	}
	t.rank = len(shape)
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		t.strides[i] = acc
		acc *= shape[i]
	}
	return n
}

// dims returns the shape as a slice view of the inline array (no copy;
// for in-package use only).
func (t *Tensor) dims() []int { return t.shape[:t.rank] }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.dims()...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return t.rank }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int {
	if i < 0 || i >= t.rank {
		panic(fmt.Sprintf("tensor: Dim(%d) out of range for rank %d", i, t.rank))
	}
	return t.shape[i]
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if t.rank != u.rank {
		return false
	}
	return t.shape == u.shape
}

// Index converts a multi-dimensional index into a flat offset.
func (t *Tensor) Index(idx ...int) int {
	if len(idx) != t.rank {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.dims()))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.dims()))
		}
		off += ix * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.Index(idx...)] }

// Set writes v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.Index(idx...)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.dims()...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies the data of u into t. Shapes must match.
func (t *Tensor) CopyFrom(u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.dims(), u.dims()))
	}
	copy(t.Data, u.Data)
}

// Reshape returns a view of t with a new shape covering the same data.
// The total number of elements must be unchanged.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := &Tensor{}
	n := out.setShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v (size %d)", t.dims(), len(t.Data), shape, n))
	}
	out.Data = t.Data
	return out
}

// Rows returns rows [lo, hi) of t's first dimension as a view sharing
// t's data — t itself when that is all of them, which allocates nothing.
func (t *Tensor) Rows(lo, hi int) *Tensor {
	if t.rank == 0 || lo < 0 || hi < lo || hi > t.shape[0] {
		panic(fmt.Sprintf("tensor: Rows(%d, %d) out of range for shape %v", lo, hi, t.dims()))
	}
	if lo == 0 && hi == t.shape[0] {
		return t
	}
	v := *t
	v.shape[0] = hi - lo
	v.Data = t.Data[lo*t.strides[0] : hi*t.strides[0] : hi*t.strides[0]]
	return &v
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.Data) <= 32 {
		return fmt.Sprintf("Tensor%v%v", t.dims(), t.Data)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.dims())
	for i := 0; i < 8; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%g", t.Data[i])
	}
	fmt.Fprintf(&b, " ... %d elems]", len(t.Data))
	return b.String()
}
