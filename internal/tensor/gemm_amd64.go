package tensor

// fmaKernel4x8 is the AVX2+FMA microkernel in gemm_amd64.s. It computes
// the 4×8 tile c[r*ldc+j] (+)= Σ_p A(r, p) · b[p*ldb+j], reading both
// operands in place: step p = q1·k2 + q2 of row r of A at
// a[ro[r] + q1·s1 + q2·s2] (a plain matrix is k1 = 1: row-major
// ro[r] = r·k, s2 = 1; transposed ro[r] = r, s2 = m; a packed ragged
// panel ro[r] = r, s2 = MR), and B a row-major matrix (ldb=n) or a
// packed column panel (ldb=NR). Every address it forms must be in
// bounds, the C tile included. k1 and k2 must be ≥ 1.
//
//go:noescape
func fmaKernel4x8(a *float64, ro *[gemmMR]int, b, c *float64, k1, k2, s1, s2, ldb, ldc int, acc bool)

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
