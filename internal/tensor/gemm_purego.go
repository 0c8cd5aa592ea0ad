//go:build purego

package tensor

// Building with -tags purego forces the portable math.FMA register tile
// even on amd64 hardware that has the assembly kernel.
// CI runs the full GEMM suite under this tag so the fallback path —
// normally reachable only on non-amd64 hosts or pre-AVX2 CPUs — is
// exercised on every change. Both paths are bitwise identical, so every
// test passes unmodified.
const forcePureGo = true
