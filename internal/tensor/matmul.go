package tensor

import (
	"fmt"

	"repro/internal/par"
)

// parallelFlops is the number of multiply-adds (m·n·k for a matmul) above
// which a kernel fans out onto the internal/par worker pool. Below it the
// sequential kernel wins.
//
// Tuning evidence (Xeon @ 2.10GHz, go1.24): BenchmarkParDispatch in
// internal/par puts the fixed cost of waking a 4-worker pool and claiming
// all chunks of a Run at ~0.8µs (vs ~0.3µs for the inline 1-worker path).
// The ikj kernel sustains roughly 2 mul-adds/ns single-threaded, so the
// crossover 32·64·64 ≈ 131k mul-adds ≈ 65µs of work: a 2-worker split
// (~33µs + 1µs dispatch) already halves the wall clock, and dispatch
// stays ~1.5% of the op. One step smaller (32³ ≈ 17µs,
// BenchmarkMatMulSmall) the split still wins at 4+ workers but is
// marginal at 2, so small ops stay sequential to protect latency.
const parallelFlops = 32 * 64 * 64

// parallelElems is the element count above which simple O(n) kernels
// (transpose, matvec rows) parallelize. These move ~8 bytes per element
// with little arithmetic (~1ns/elem), so 32k elements ≈ 32µs of work —
// roughly the same ≥10× dispatch-cost bar as parallelFlops.
const parallelElems = 32 * 1024

// MatMul returns the matrix product t × u for 2-D tensors via the packed
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
	gemm(gemmOp{a: t.Data, b: u.Data, dst: dst.Data, m: m, k: k, n: n})
	return dst
}

// MatMulAcc accumulates t × u into dst (dst += t × u): every element's
// FMA chain continues from the value dst holds, so a product over k
// split into consecutive runs of rows of u, each accumulated in turn, is
// bitwise the product over all of k at once. dst must be [m, n] and must
// not alias t or u. It returns dst.
func (t *Tensor) MatMulAcc(u, dst *Tensor) *Tensor {
	m, k, n := matmulDims(t, u, "MatMulAcc")
	checkDst(dst, m, n, "MatMulAcc")
	gemm(gemmOp{a: t.Data, b: u.Data, dst: dst.Data, m: m, k: k, n: n, acc: true})
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
	gemm(gemmOp{a: t.Data, b: u.Data, dst: dst.Data, m: m, k: k, n: n, bTrans: true})
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
	gemm(gemmOp{a: t.Data, b: u.Data, dst: dst.Data, m: m, k: k, n: n, aTrans: true, acc: true})
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

// Transpose2D returns the transpose of a 2-D tensor as a new tensor.
func (t *Tensor) Transpose2D() *Tensor {
	if t.Dims() != 2 {
		panic("tensor: Transpose2D requires a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	transpose := func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			orow := out.Data[j*m : (j+1)*m]
			for i := 0; i < m; i++ {
				orow[i] = t.Data[i*n+j]
			}
		}
	}
	if m*n < parallelElems || n < 2 {
		transpose(0, n)
		return out
	}
	par.Run(n, transpose)
	return out
}

// MatVec returns the matrix-vector product t × v for a 2-D tensor and a
// 1-D tensor, parallelized across rows for large matrices.
func (t *Tensor) MatVec(v *Tensor) *Tensor {
	if t.Dims() != 2 || v.Dims() != 1 {
		panic("tensor: MatVec requires a 2-D tensor and a 1-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	if v.Size() != n {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v × len %d", t.dims(), v.Size()))
	}
	out := New(m)
	rows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.Data[i*n : (i+1)*n]
			s := 0.0
			for j, rv := range row {
				s += rv * v.Data[j]
			}
			out.Data[i] = s
		}
	}
	if m*n < parallelElems || m < 2 {
		rows(0, m)
		return out
	}
	par.Run(m, rows)
	return out
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
