package tensor

// fmaKernel4x8 is the AVX2+FMA microkernel in gemm_amd64.s. It computes
// the 4×8 tile c[r*ldc+j] (+)= Σ_p a[r*lda+p*sa] · b[p*ldb+j], reading
// both operands in place through their strides: a row-major A is
// (lda=k, sa=1), a transposed one (lda=1, sa=m), a packed ragged panel
// (lda=1, sa=MR); B is a row-major matrix (ldb=n) or a packed column
// panel (ldb=NR). Every address it forms must be in bounds, the C tile
// included. k must be ≥ 1.
func fmaKernel4x8(a, b, c *float64, k, lda, sa, ldb, ldc int, acc bool)

func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// useFMAKernel is decided once at startup: the assembly kernel needs
// AVX2 + FMA3 and an OS that saves YMM state (OSXSAVE + XCR0 bits 1–2).
// Without them the portable math.FMA kernel runs instead — slower,
// bitwise identical. Building with -tags purego pins the portable
// kernel regardless of hardware (see gemm_purego.go).
var useFMAKernel = !forcePureGo && detectFMAKernel()

func detectFMAKernel() bool {
	maxLeaf, _, _, _ := cpuidRaw(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
