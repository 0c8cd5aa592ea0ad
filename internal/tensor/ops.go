package tensor

import (
	"fmt"
	"math"
)

// Add returns t + u elementwise as a new tensor. Shapes must match.
func (t *Tensor) Add(u *Tensor) *Tensor {
	t.mustMatch(u, "Add")
	out := NewLike(t)
	for i, v := range t.Data {
		out.Data[i] = v + u.Data[i]
	}
	return out
}

// Sub returns t - u elementwise as a new tensor. Shapes must match.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	t.mustMatch(u, "Sub")
	out := NewLike(t)
	for i, v := range t.Data {
		out.Data[i] = v - u.Data[i]
	}
	return out
}

// Mul returns the Hadamard (elementwise) product t ⊙ u as a new tensor.
func (t *Tensor) Mul(u *Tensor) *Tensor {
	t.mustMatch(u, "Mul")
	out := NewLike(t)
	for i, v := range t.Data {
		out.Data[i] = v * u.Data[i]
	}
	return out
}

// AddInPlace sets t = t + u and returns t.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	t.mustMatch(u, "AddInPlace")
	for i, v := range u.Data {
		t.Data[i] += v
	}
	return t
}

// Scale returns c*t as a new tensor.
func (t *Tensor) Scale(c float64) *Tensor {
	out := NewLike(t)
	for i, v := range t.Data {
		out.Data[i] = c * v
	}
	return out
}

// ScaleInPlace sets t = c*t and returns t.
func (t *Tensor) ScaleInPlace(c float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= c
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product of t and u viewed as flat vectors.
func (t *Tensor) Dot(u *Tensor) float64 {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", len(t.Data), len(u.Data)))
	}
	s := 0.0
	for i, v := range t.Data {
		s += v * u.Data[i]
	}
	return s
}

// AddRowVectorInPlace adds the length-cols vector v to every row of a 2-D
// tensor in place and returns t.
func (t *Tensor) AddRowVectorInPlace(v *Tensor) *Tensor {
	if t.Dims() != 2 {
		panic("tensor: AddRowVectorInPlace requires a 2-D tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	if v.Size() != cols {
		panic(fmt.Sprintf("tensor: AddRowVectorInPlace vector length %d != cols %d", v.Size(), cols))
	}
	for r := 0; r < rows; r++ {
		base := r * cols
		for c := 0; c < cols; c++ {
			t.Data[base+c] += v.Data[c]
		}
	}
	return t
}

// SumRowsAcc accumulates the column sums of a 2-D tensor into the
// length-cols vector dst (dst += column sums) and returns dst — the bias
// gradient of AddRowVectorInPlace's broadcast.
func (t *Tensor) SumRowsAcc(dst *Tensor) *Tensor {
	if t.Dims() != 2 {
		panic("tensor: SumRowsAcc requires a 2-D tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	if dst.Size() != cols {
		panic(fmt.Sprintf("tensor: SumRowsAcc destination length %d != cols %d", dst.Size(), cols))
	}
	for r := 0; r < rows; r++ {
		base := r * cols
		for c := 0; c < cols; c++ {
			dst.Data[c] += t.Data[base+c]
		}
	}
	return dst
}

func (t *Tensor) mustMatch(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.dims(), u.dims()))
	}
}

// Equal reports whether t and u have the same shape and all elements are
// within tol of each other.
func (t *Tensor) Equal(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(v-u.Data[i]) > tol {
			return false
		}
	}
	return true
}
