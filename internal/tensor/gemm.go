package tensor

import (
	"math"
	"sync"

	"repro/internal/par"
)

// This file is the packed, cache-blocked GEMM engine behind MatMul,
// MatMulT and TMatMul. The classic blocked structure (pack B once into
// column panels, pack A row-panel by row-panel, compute MR×NR register
// tiles) is specialized to one extra requirement the rest of the system
// depends on: bitwise determinism. Every output element is produced by
// folding one fused multiply-add per k-step into a single accumulator in
// ascending-k order, and by nothing else. That makes the value of
// C[i][j] a function of row i of A and column j of B alone — independent
// of the worker count, of how rows are chunked, of tile shape, and of
// how many other rows or columns the operation carries. The batched
// inference path leans on exactly this property: row i of a batch-32
// forward is bitwise the row a batch-1 forward would produce.
//
// Fused arithmetic is used in all paths: the AVX2+FMA microkernel on
// amd64 hardware that supports it (runtime CPUID check), and math.FMA —
// exactly-rounded by spec, hardware or not — in the portable fallback.
// Both produce identical bits for identical inputs.
//
// Blocking parameters: the microkernel computes an MR×NR = 4×8 tile
// held entirely in registers (8 YMM accumulators on amd64), streaming a
// packed MR-wide A panel and a packed NR-wide B panel over the full k
// extent. Panels are packed so the kernel reads both operands
// sequentially: ap[p*MR+r], bp[p*NR+c]. A 4×8 tile over k=512 touches
// ~16 KiB of A panel + ~32 KiB of B panel — the A panel and the active
// slice of B live in L1/L2 while C stays in registers; there is no
// k-blocking because splitting k would need partial-sum merges that
// change rounding order.
const (
	gemmMR = 4
	gemmNR = 8
)

// gemmOp describes one C = A·B (or C += A·B) in row-major storage.
// aTrans means a holds the k×m transpose of the logical m×k A;
// bTrans means b holds the n×k transpose of the logical k×n B.
type gemmOp struct {
	a, b, dst []float64
	m, k, n   int
	aTrans    bool
	bTrans    bool
	acc       bool      // accumulate into dst instead of overwriting
	bp        []float64 // B already in column panels (a PackedB's); b is then unused
}

// gemmScratch carries the packed-B buffer and a pre-bound worker closure
// so a steady-state gemm call performs zero heap allocations: the
// scratch (and the closure capturing it) is built once per pooled object
// and reused across calls.
type gemmScratch struct {
	bp  []float64 // packed B of an op that brought none: ceil(n/NR) panels of NR*k
	op  gemmOp
	run func(lo, hi int) // processes A row-panels [lo,hi)
}

var gemmScratchPool = sync.Pool{New: func() any {
	s := &gemmScratch{}
	s.run = func(lo, hi int) { s.runPanels(lo, hi) }
	return s
}}

// panelScratch is the per-goroutine packing buffer: one A panel and one
// spill tile for ragged tile edges. Pooled separately from gemmScratch
// because several workers pack A panels for the same operation at once.
type panelScratch struct {
	ap []float64 // MR * k
	ct [gemmMR * gemmNR]float64
}

var panelScratchPool = sync.Pool{New: func() any { return &panelScratch{} }}

// gemm executes op on the packed kernel, parallelizing across A
// row-panels when the op is large enough to amortize pool dispatch.
// Chunk boundaries are in whole panels, so no two workers ever share a
// panel and the per-element arithmetic order never depends on the split.
func gemm(op gemmOp) {
	if op.m == 0 || op.n == 0 {
		return
	}
	if op.k == 0 {
		if !op.acc {
			zeroRect(op.dst, op.m, op.n)
		}
		return
	}
	s := gemmScratchPool.Get().(*gemmScratch)
	s.op = op
	if op.bp == nil {
		s.bp = packPanels(s.bp, op.b, op.k, op.n, op.bTrans)
		s.op.bp = s.bp
	}
	panels := (op.m + gemmMR - 1) / gemmMR
	if op.m*op.n*op.k < parallelFlops || panels < 2 {
		s.run(0, panels)
	} else {
		par.Run(panels, s.run)
	}
	s.op = gemmOp{} // do not retain caller slices in the pool
	gemmScratchPool.Put(s)
}

func zeroRect(dst []float64, m, n int) {
	for i := range dst[:m*n] {
		dst[i] = 0
	}
}

// packPanels lays B (k×n; given as its n×k transpose when bTrans) out
// in column panels of NR, in bp's storage when it is large enough: panel
// jp holds columns [jp*NR, jp*NR+NR) as bp[jp*NR*k + p*NR + c],
// zero-padded past n so the microkernel never branches on ragged widths.
// Padded columns are never copied back out.
func packPanels(bp, b []float64, k, n int, bTrans bool) []float64 {
	padN := (n + gemmNR - 1) / gemmNR * gemmNR
	if cap(bp) < padN*k {
		bp = make([]float64, padN*k)
	}
	bp = bp[:padN*k]
	if bTrans {
		// b is n×k; column j of logical B is row j of b.
		for jc := 0; jc < padN; jc += gemmNR {
			panel := bp[jc*k : jc*k+gemmNR*k]
			cols := n - jc
			if cols > gemmNR {
				cols = gemmNR
			}
			for c := 0; c < cols; c++ {
				brow := b[(jc+c)*k : (jc+c+1)*k]
				for p, v := range brow {
					panel[p*gemmNR+c] = v
				}
			}
			for c := cols; c < gemmNR; c++ {
				for p := 0; p < k; p++ {
					panel[p*gemmNR+c] = 0
				}
			}
		}
		return bp
	}
	// b is k×n row-major.
	for jc := 0; jc < padN; jc += gemmNR {
		panel := bp[jc*k : jc*k+gemmNR*k]
		cols := n - jc
		if cols > gemmNR {
			cols = gemmNR
		}
		for p := 0; p < k; p++ {
			src := b[p*n+jc : p*n+jc+cols]
			dst := panel[p*gemmNR : p*gemmNR+gemmNR]
			copy(dst, src)
			for c := cols; c < gemmNR; c++ {
				dst[c] = 0
			}
		}
	}
	return bp
}

// runPanels computes A row-panels [lo,hi): pack the panel, then sweep
// every B panel with the register-tile kernel. Ragged edges (m%MR rows,
// n%NR cols) run the same kernel into a spill tile and copy the valid
// rectangle, so every element sees the identical FMA chain.
func (s *gemmScratch) runPanels(lo, hi int) {
	op := &s.op
	k, n := op.k, op.n
	padN := (n + gemmNR - 1) / gemmNR * gemmNR
	ps := panelScratchPool.Get().(*panelScratch)
	if cap(ps.ap) < gemmMR*k {
		ps.ap = make([]float64, gemmMR*k)
	}
	ap := ps.ap[:gemmMR*k]
	for panel := lo; panel < hi; panel++ {
		i0 := panel * gemmMR
		rows := op.m - i0
		if rows > gemmMR {
			rows = gemmMR
		}
		packA(ap, op, i0, rows)
		for jc := 0; jc < padN; jc += gemmNR {
			bpanel := op.bp[jc*k : jc*k+gemmNR*k]
			cols := n - jc
			if cols > gemmNR {
				cols = gemmNR
			}
			if rows == gemmMR && cols == gemmNR {
				gemmKernel(ap, bpanel, op.dst[i0*n+jc:], k, n, op.acc)
				continue
			}
			// Ragged tile: preload the valid rectangle (zeros elsewhere)
			// and run with acc=true — starting the FMA chain from 0 or
			// from dst is exactly what the interior tiles do.
			ct := &ps.ct
			for i := range ct {
				ct[i] = 0
			}
			if op.acc {
				for r := 0; r < rows; r++ {
					copy(ct[r*gemmNR:r*gemmNR+cols], op.dst[(i0+r)*n+jc:(i0+r)*n+jc+cols])
				}
			}
			gemmKernel(ap, bpanel, ct[:], k, gemmNR, true)
			for r := 0; r < rows; r++ {
				copy(op.dst[(i0+r)*n+jc:(i0+r)*n+jc+cols], ct[r*gemmNR:r*gemmNR+cols])
			}
		}
	}
	panelScratchPool.Put(ps)
}

// packA packs rows [i0, i0+rows) of logical A as ap[p*MR+r], zeroing
// the pad rows of a short final panel.
func packA(ap []float64, op *gemmOp, i0, rows int) {
	k := op.k
	if op.aTrans {
		// a is k×m; logical row i is column i of a.
		m := op.m
		if rows == gemmMR {
			for p := 0; p < k; p++ {
				src := op.a[p*m+i0 : p*m+i0+gemmMR]
				dst := ap[p*gemmMR : p*gemmMR+gemmMR]
				dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
			}
			return
		}
		for p := 0; p < k; p++ {
			src := op.a[p*m+i0:]
			dst := ap[p*gemmMR : p*gemmMR+gemmMR]
			for r := 0; r < rows; r++ {
				dst[r] = src[r]
			}
			for r := rows; r < gemmMR; r++ {
				dst[r] = 0
			}
		}
		return
	}
	for r := 0; r < rows; r++ {
		arow := op.a[(i0+r)*k : (i0+r+1)*k]
		for p, v := range arow {
			ap[p*gemmMR+r] = v
		}
	}
	for r := rows; r < gemmMR; r++ {
		for p := 0; p < k; p++ {
			ap[p*gemmMR+r] = 0
		}
	}
}

// gemmKernel computes the MR×NR tile c[r*ldc+j] (+)= Σ_p ap[p*MR+r] ·
// bp[p*NR+j], one exactly-rounded fused multiply-add per product in
// ascending p. On capable amd64 hardware this dispatches to the AVX2
// microkernel; everywhere else to the math.FMA tile below. Both produce
// identical bits.
func gemmKernel(ap, bp, c []float64, k, ldc int, acc bool) {
	if useFMAKernel {
		fmaKernel4x8(&ap[0], &bp[0], &c[0], k, ldc, acc)
		return
	}
	gemmKernelGeneric(ap, bp, c, k, ldc, acc)
}

// gemmKernelGeneric is the portable register tile: 32 scalar
// accumulators streaming the packed panels with math.FMA. math.FMA is
// exactly rounded whether or not the hardware has a fused instruction,
// so this matches the assembly kernel bit for bit.
func gemmKernelGeneric(ap, bp, c []float64, k, ldc int, acc bool) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float64
	var c10, c11, c12, c13, c14, c15, c16, c17 float64
	var c20, c21, c22, c23, c24, c25, c26, c27 float64
	var c30, c31, c32, c33, c34, c35, c36, c37 float64
	if acc {
		r0 := c[0*ldc : 0*ldc+8]
		c00, c01, c02, c03, c04, c05, c06, c07 = r0[0], r0[1], r0[2], r0[3], r0[4], r0[5], r0[6], r0[7]
		r1 := c[1*ldc : 1*ldc+8]
		c10, c11, c12, c13, c14, c15, c16, c17 = r1[0], r1[1], r1[2], r1[3], r1[4], r1[5], r1[6], r1[7]
		r2 := c[2*ldc : 2*ldc+8]
		c20, c21, c22, c23, c24, c25, c26, c27 = r2[0], r2[1], r2[2], r2[3], r2[4], r2[5], r2[6], r2[7]
		r3 := c[3*ldc : 3*ldc+8]
		c30, c31, c32, c33, c34, c35, c36, c37 = r3[0], r3[1], r3[2], r3[3], r3[4], r3[5], r3[6], r3[7]
	}
	for p := 0; p < k; p++ {
		bpp := bp[p*gemmNR : p*gemmNR+gemmNR : p*gemmNR+gemmNR]
		app := ap[p*gemmMR : p*gemmMR+gemmMR : p*gemmMR+gemmMR]
		a0 := app[0]
		c00 = math.FMA(a0, bpp[0], c00)
		c01 = math.FMA(a0, bpp[1], c01)
		c02 = math.FMA(a0, bpp[2], c02)
		c03 = math.FMA(a0, bpp[3], c03)
		c04 = math.FMA(a0, bpp[4], c04)
		c05 = math.FMA(a0, bpp[5], c05)
		c06 = math.FMA(a0, bpp[6], c06)
		c07 = math.FMA(a0, bpp[7], c07)
		a1 := app[1]
		c10 = math.FMA(a1, bpp[0], c10)
		c11 = math.FMA(a1, bpp[1], c11)
		c12 = math.FMA(a1, bpp[2], c12)
		c13 = math.FMA(a1, bpp[3], c13)
		c14 = math.FMA(a1, bpp[4], c14)
		c15 = math.FMA(a1, bpp[5], c15)
		c16 = math.FMA(a1, bpp[6], c16)
		c17 = math.FMA(a1, bpp[7], c17)
		a2 := app[2]
		c20 = math.FMA(a2, bpp[0], c20)
		c21 = math.FMA(a2, bpp[1], c21)
		c22 = math.FMA(a2, bpp[2], c22)
		c23 = math.FMA(a2, bpp[3], c23)
		c24 = math.FMA(a2, bpp[4], c24)
		c25 = math.FMA(a2, bpp[5], c25)
		c26 = math.FMA(a2, bpp[6], c26)
		c27 = math.FMA(a2, bpp[7], c27)
		a3 := app[3]
		c30 = math.FMA(a3, bpp[0], c30)
		c31 = math.FMA(a3, bpp[1], c31)
		c32 = math.FMA(a3, bpp[2], c32)
		c33 = math.FMA(a3, bpp[3], c33)
		c34 = math.FMA(a3, bpp[4], c34)
		c35 = math.FMA(a3, bpp[5], c35)
		c36 = math.FMA(a3, bpp[6], c36)
		c37 = math.FMA(a3, bpp[7], c37)
	}
	r0 := c[0*ldc : 0*ldc+8]
	r0[0], r0[1], r0[2], r0[3], r0[4], r0[5], r0[6], r0[7] = c00, c01, c02, c03, c04, c05, c06, c07
	r1 := c[1*ldc : 1*ldc+8]
	r1[0], r1[1], r1[2], r1[3], r1[4], r1[5], r1[6], r1[7] = c10, c11, c12, c13, c14, c15, c16, c17
	r2 := c[2*ldc : 2*ldc+8]
	r2[0], r2[1], r2[2], r2[3], r2[4], r2[5], r2[6], r2[7] = c20, c21, c22, c23, c24, c25, c26, c27
	r3 := c[3*ldc : 3*ldc+8]
	r3[0], r3[1], r3[2], r3[3], r3[4], r3[5], r3[6], r3[7] = c30, c31, c32, c33, c34, c35, c36, c37
}
