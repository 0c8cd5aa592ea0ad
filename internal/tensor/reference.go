package tensor

// Reference kernels: the pre-GEMM naive loops, kept as an independent
// implementation for correctness cross-checks and for the kernel-vs-naive
// speedup table in cmd/experiments. They use unfused multiply-then-add,
// so they agree with the GEMM only to rounding error — the GEMM is
// validated bitwise against a scalar math.FMA oracle in the tests
// instead.

// ReferenceMatMulInto computes dst = t × u with the naive ikj loop.
func (t *Tensor) ReferenceMatMulInto(u, dst *Tensor) *Tensor {
	m, k, n := matmulDims(t, u, "ReferenceMatMulInto")
	checkDst(dst, m, n, "ReferenceMatMulInto")
	dst.Zero()
	out, a, b := dst.Data, t.Data, u.Data
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p, av := range arow {
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// ReferenceMatMulTInto computes dst = t × uᵀ with the naive dot-product
// loop.
func (t *Tensor) ReferenceMatMulTInto(u, dst *Tensor) *Tensor {
	m, k, n := matmulTDims(t, u, "ReferenceMatMulTInto")
	checkDst(dst, m, n, "ReferenceMatMulTInto")
	out, a, b := dst.Data, t.Data, u.Data
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
	return dst
}

// ReferenceTMatMulAcc accumulates dst += tᵀ × u with the naive p-outer
// loop.
func (t *Tensor) ReferenceTMatMulAcc(u, dst *Tensor) *Tensor {
	k, m := tmatmulDims(t, u, "ReferenceTMatMulAcc")
	n := u.shape[1]
	checkDst(dst, m, n, "ReferenceTMatMulAcc")
	out, a, b := dst.Data, t.Data, u.Data
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			orow := out[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}
