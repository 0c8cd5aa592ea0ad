//go:build !amd64

package tensor

// Non-amd64 builds always use the portable math.FMA register tile. On
// arm64 math.FMA compiles to the native fused instruction, so "portable"
// is not a euphemism for slow there.
const useFMAKernel = false

func fmaKernel4x8(a *float64, ro *[gemmMR]int, b, c *float64, k1, k2, s1, s2, ldb, ldc int, acc bool) {
	panic("tensor: fmaKernel4x8 without assembly support")
}
