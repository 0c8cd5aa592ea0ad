package tensor

import "fmt"

// MatMul returns the matrix product t × u for 2-D tensors via the
// register-tile GEMM kernel (see gemm.go).
func (t *Tensor) MatMul(u *Tensor) *Tensor {
	m, _, n := matmulDims(t, u, "MatMul")
	out := New(m, n)
	t.MatMulInto(u, out)
	return out
}

// MatMulInto computes dst = t × u, reusing dst's storage. dst must be
// [m, n] and must not alias t or u. It returns dst.
func (t *Tensor) MatMulInto(u, dst *Tensor) *Tensor {
	m, k, n := matmulDims(t, u, "MatMulInto")
	checkDst(dst, m, n, "MatMulInto")
	gemm(gemmOp{a: t.Data, av: rowMajor(k), b: u.Data, dst: dst.Data, m: m, k: k, n: n})
	return dst
}

// MatMulT returns t × uᵀ without materializing the transpose.
func (t *Tensor) MatMulT(u *Tensor) *Tensor {
	m, _, n := matmulTDims(t, u, "MatMulT")
	out := New(m, n)
	t.MatMulTInto(u, out)
	return out
}

// MatMulTInto computes dst = t × uᵀ, reusing dst's storage. dst must be
// [m, n] and must not alias t or u. It returns dst.
func (t *Tensor) MatMulTInto(u, dst *Tensor) *Tensor {
	m, k, n := matmulTDims(t, u, "MatMulTInto")
	checkDst(dst, m, n, "MatMulTInto")
	gemm(gemmOp{a: t.Data, av: rowMajor(k), b: u.Data, dst: dst.Data, m: m, k: k, n: n, bTrans: true})
	return dst
}

// TMatMul returns tᵀ × u without materializing the transpose.
func (t *Tensor) TMatMul(u *Tensor) *Tensor {
	_, m := tmatmulDims(t, u, "TMatMul")
	return t.TMatMulAcc(u, New(m, u.shape[1]))
}

// TMatMulAcc accumulates tᵀ × u into dst (dst += tᵀ × u) without a
// temporary — the gradient-accumulation op param.Grad += gradᵀ·x. dst must
// be [cols(t), cols(u)] and must not alias t or u. It returns dst.
func (t *Tensor) TMatMulAcc(u, dst *Tensor) *Tensor {
	k, m := tmatmulDims(t, u, "TMatMulAcc")
	n := u.shape[1]
	checkDst(dst, m, n, "TMatMulAcc")
	gemm(gemmOp{a: t.Data, av: transposed(m, k), b: u.Data, dst: dst.Data, m: m, k: k, n: n, acc: true})
	return dst
}

func tmatmulDims(t, u *Tensor, op string) (k, m int) {
	if t.Dims() != 2 || u.Dims() != 2 {
		panic("tensor: " + op + " requires 2-D tensors")
	}
	k, m = t.shape[0], t.shape[1]
	if u.shape[0] != k {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %vᵀ × %v", op, t.dims(), u.dims()))
	}
	return k, m
}

func matmulDims(t, u *Tensor, op string) (m, k, n int) {
	if t.Dims() != 2 || u.Dims() != 2 {
		panic("tensor: " + op + " requires 2-D tensors")
	}
	m, k = t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v × %v", op, t.dims(), u.dims()))
	}
	return m, k, n
}

func matmulTDims(t, u *Tensor, op string) (m, k, n int) {
	if t.Dims() != 2 || u.Dims() != 2 {
		panic("tensor: " + op + " requires 2-D tensors")
	}
	m, k = t.shape[0], t.shape[1]
	n, k2 := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v × %vᵀ", op, t.dims(), u.dims()))
	}
	return m, k, n
}

func checkDst(dst *Tensor, m, n int, op string) {
	if dst.Dims() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.dims(), m, n))
	}
}

// PackedB is the right-hand operand B (k×n) of a product, laid out once
// in the column panels the GEMM kernel streams. A product against it
// skips the per-call pack that a transposed, ragged or large B takes,
// which for a one-row product is most of the work, and is bitwise the
// product against B itself: packing only moves values. Any number of
// goroutines may read one while nobody packs into it. A PackedB is a
// copy: it does not follow later writes to the tensor it was packed from.
type PackedB struct {
	bp   []float64
	k, n int
}

// PackInto packs B into dst's panels, reusing their storage, and returns
// dst; a nil dst gets fresh ones. B is b ([k, n]), the operand of
// MatMulInto and MatMulViewAcc, or with trans the transpose of b ([n, k]),
// the operand of MatMulTInto.
func PackInto(dst *PackedB, b *Tensor, trans bool) *PackedB {
	if b.Dims() != 2 {
		panic("tensor: PackInto requires a 2-D tensor")
	}
	k, n := b.shape[0], b.shape[1]
	if trans {
		k, n = n, k
	}
	if dst == nil {
		dst = &PackedB{}
	}
	dst.bp, dst.k, dst.n = packPanels(dst.bp, b.Data, k, n, trans), k, n
	return dst
}

// MatMulPackedInto computes dst = t × B, reusing dst's storage: what
// MatMulInto computes against the tensor pb was packed from (MatMulTInto
// against the one packed transposed). dst must be [m, n] and must not alias
// t. It returns dst.
func (t *Tensor) MatMulPackedInto(pb *PackedB, dst *Tensor) *Tensor {
	if t.Dims() != 2 || t.shape[1] != pb.k {
		panic(fmt.Sprintf("tensor: MatMulPackedInto inner dimension mismatch %v × [%d %d]", t.dims(), pb.k, pb.n))
	}
	m := t.shape[0]
	checkDst(dst, m, pb.n, "MatMulPackedInto")
	gemm(gemmOp{a: t.Data, av: rowMajor(pb.k), dst: dst.Data, m: m, k: pb.k, n: pb.n, bp: pb.bp})
	return dst
}

// MatMulViewAcc accumulates A·B into dst (dst += A·B) without
// materializing A: A is the [m, k] matrix v views in a (m = rows of dst),
// read in place, and B is the matrix pb was packed from or, when pb is
// nil, b ([k, n]). Every element is one FMA chain continued from dst in
// ascending k, like every other product here. A view that reads past
// the end of a panics. dst must not alias a or B. It returns dst.
func MatMulViewAcc(a []float64, v View, b *Tensor, pb *PackedB, dst *Tensor) *Tensor {
	if dst.Dims() != 2 {
		panic("tensor: MatMulViewAcc requires a 2-D destination")
	}
	m, n := dst.shape[0], dst.shape[1]
	op := gemmOp{a: a, av: v, dst: dst.Data, m: m, n: n, acc: true}
	switch {
	case pb != nil && pb.n == n:
		op.bp, op.k = pb.bp, pb.k
	case pb == nil && b != nil && b.Dims() == 2 && b.shape[1] == n:
		op.b, op.k = b.Data, b.shape[0]
	default:
		panic(fmt.Sprintf("tensor: MatMulViewAcc operand does not fit destination %v", dst.dims()))
	}
	gemm(op)
	return dst
}
