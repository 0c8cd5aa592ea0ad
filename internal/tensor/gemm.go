package tensor

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/par"
)

// This file is the GEMM engine behind MatMul, MatMulT, TMatMul and the
// PackedB products. One MR×NR register-tile microkernel computes every
// element; the driver around it hands the kernel its operands in place
// wherever their layout allows and copies only what the kernel cannot
// read. The one requirement the rest of the system depends on is bitwise
// determinism: every output element is produced by folding one fused
// multiply-add per k-step into a single accumulator in ascending-k
// order, and by nothing else. That makes the value of C[i][j] a function
// of row i of A and column j of B alone — independent of the worker
// count, of how rows are chunked, of whether an operand was copied first,
// and of how many other rows or columns the operation carries. The
// batched inference path leans on exactly this property: row i of a
// batch-32 forward is bitwise the row a batch-1 forward would produce.
//
// Fused arithmetic is used in all paths: the AVX2+FMA microkernel on
// amd64 hardware that supports it (runtime CPUID check), and math.FMA —
// exactly-rounded by spec, hardware or not — in the portable fallback.
// Both produce identical bits for identical inputs.
//
// The microkernel computes an MR×NR = 4×8 tile held entirely in
// registers (8 YMM accumulators on amd64) over the full k extent. It
// reads A through a two-level strided View: row r of the tile starts at
// its own offset ro[r], and step p = q1·k2 + q2 adds q1·s1 + q2·s2, so
// A(r, p) is a[ro[r] + q1·s1 + q2·s2]; row p of B is b[p·ldb]:
//   - A is read in place, 4 rows at a time, through its View. A plain
//     matrix is the case of one step group (k1 = 1): row-major (row i at
//     i·k, step stride 1) or transposed (row i at i, step stride m). A
//     convolution's im2col matrix is a View of its input (see MatMulViewAcc):
//     nothing is gathered. Only a short last panel (m%MR rows) is
//     copied, through the View, with zero pad rows.
//   - A row-major B is read in place (ldb=n) when n is a whole number of
//     NR-wide panels and k·n ≤ inPlaceBElems. Otherwise — a transposed
//     B, a ragged n, a large B — B is copied once per call into
//     zero-padded NR-wide column panels (ldb=NR), which a PackedB holds
//     ready-made.
//
// There is no k-blocking because splitting k would need partial-sum
// merges that change rounding order.
const (
	gemmMR = 4
	gemmNR = 8
)

// inPlaceBElems is the largest row-major B, in elements (k·n), that the
// kernel reads in place rather than packed. Every A panel walks B's k
// rows at a stride of n: while B stays in cache that costs nothing, and
// the pack it saves — one copy of B per call, serial before any split —
// is a large share of a small product. A B that outgrows the cache is
// streamed again by every A panel through strided rows, which the
// contiguous panels avoid. Measured with m = k = n products and a few
// m = 256 ones on a 2-vCPU Xeon (48 KiB L1d, 2 MiB L2; go1.24), six
// alternating runs at GOMAXPROCS 1 and 2: every B of at most 2^16
// elements ran faster in place at both (256³ 0.93× and 0.88× the packed
// time); between 2^16 and 2^17 the ratio ranged 0.87–1.03×; beyond, in
// place lost at 1 proc from 384³ (1.09×) and at both from 448³ (1.46×
// and 1.13×; 512³ 1.48× and 1.41×). BENCH_compute.json
// "pr47-gemm-inplace-paired" keeps the runs.
const inPlaceBElems = 1 << 16

// View is an m×k matrix A read in place from a slice at two levels of
// stride: row i starts at Off + (i/M2)·T1 + (i%M2)·T2, and step p lies
// (p/K2)·S1 + (p%K2)·S2 past it, so
//
//	A(i, p) = a[Off + (i/M2)·T1 + (i%M2)·T2 + (p/K2)·S1 + (p%K2)·S2].
//
// A row-major matrix is View{M2: 1, T1: k, K2: k, S2: 1}, its transpose
// View{M2: 1, T1: 1, K2: k, S2: m}. The im2col matrix of a convolution
// over [batch, channels, time] input — row (sample, step), step
// (channel, tap) — is one too when its taps are evenly spaced and none
// falls in the causal padding. M2 and K2
// must be ≥ 1, K2 must divide k, and the offsets and strides must not be
// negative.
type View struct {
	Off        int
	M2, T1, T2 int
	K2, S1, S2 int
}

func rowMajor(k int) View      { return View{M2: 1, T1: k, K2: k, S2: 1} }
func transposed(m, k int) View { return View{M2: 1, T1: 1, K2: k, S2: m} }

// reach returns one past the largest index of a that v reads for an m×k
// A, and panics if v is malformed.
func (v View) reach(m, k int) int {
	if v.M2 < 1 || v.K2 < 1 || k%v.K2 != 0 || min(v.Off, v.T1, v.T2, v.S1, v.S2) < 0 {
		panic(fmt.Sprintf("tensor: malformed view %+v of a %d×%d matrix", v, m, k))
	}
	// The largest (i/n2)·t1 + (i%n2)·t2 over i < n, strides ≥ 0: at the
	// last i, or at the end of the group before it.
	last := func(n, n2, t1, t2 int) int {
		q, r := (n-1)/n2, (n-1)%n2
		hi := q*t1 + r*t2
		if q > 0 {
			hi = max(hi, (q-1)*t1+(n2-1)*t2)
		}
		return hi
	}
	return v.Off + last(m, v.M2, v.T1, v.T2) + last(k, v.K2, v.S1, v.S2) + 1
}

// gemmOp describes one C = A·B (or C += A·B) in row-major storage. A is
// the m×k matrix av views in a; bTrans means b holds the n×k transpose
// of the logical k×n B.
type gemmOp struct {
	a, b, dst []float64
	av        View
	m, k, n   int
	bTrans    bool
	acc       bool      // accumulate into dst instead of overwriting
	bp        []float64 // B in column panels (a PackedB's, or packed here); b is then unused
}

// gemmScratch carries the packed-B buffer and a pre-bound worker closure
// so a steady-state gemm call performs zero heap allocations: the
// scratch (and the closure capturing it) is built once per pooled object
// and reused across calls.
type gemmScratch struct {
	bp  []float64 // packed B of an op that cannot read its B in place: ceil(n/NR) panels of NR*k
	op  gemmOp
	run func(lo, hi int) // processes A row-panels [lo,hi)
}

var gemmScratchPool = sync.Pool{New: func() any {
	s := &gemmScratch{}
	s.run = func(lo, hi int) { s.runPanels(lo, hi) }
	return s
}}

// panelScratch is the per-goroutine buffer for ragged edges: the
// zero-padded copy of a short last A panel and a spill tile for ragged
// tiles. Pooled separately from gemmScratch because several workers may
// run ragged tiles of the same operation at once.
type panelScratch struct {
	ap []float64 // MR * k
	ct [gemmMR * gemmNR]float64
}

var panelScratchPool = sync.Pool{New: func() any { return &panelScratch{} }}

// gemm executes op on the register-tile kernel, parallelizing across A
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
	// The kernel reads A through the view unchecked; this is its bounds
	// check, once per call.
	if r := op.av.reach(op.m, op.k); r > len(op.a) {
		panic(fmt.Sprintf("tensor: view %+v of a %d×%d matrix reads index %d of %d", op.av, op.m, op.k, r-1, len(op.a)))
	}
	s := gemmScratchPool.Get().(*gemmScratch)
	s.op = op
	if packsB(&op) {
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

// packsB reports whether op's B must be packed before the kernel can
// read it: it is not already a PackedB's and is transposed, ragged in n
// or larger than inPlaceBElems.
func packsB(op *gemmOp) bool {
	return op.bp == nil && (op.bTrans || op.n%gemmNR != 0 || op.k*op.n > inPlaceBElems)
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

// runPanels computes A row-panels [lo,hi), each against every NR-wide
// column panel of B with the register-tile kernel. Ragged edges (m%MR
// rows, n%NR cols) run the same kernel into a spill tile and copy the
// valid rectangle, so every element sees the identical FMA chain.
func (s *gemmScratch) runPanels(lo, hi int) {
	op := &s.op
	m, k, n, v := op.m, op.k, op.n, op.av
	groups := k / v.K2
	// Row i of A starts at Off + q·T1 + r·T2 with q = i/M2, r = i%M2; the
	// cursor (q, r) walks the rows in order, dividing once per call.
	q, r := lo*gemmMR/v.M2, lo*gemmMR%v.M2
	b, ldb, bjc := op.bp, gemmNR, k // column jc of B starts at b[jc*bjc]
	if b == nil {
		b, ldb, bjc = op.b, n, 1
	}
	padN := (n + gemmNR - 1) / gemmNR * gemmNR
	ps := panelScratchPool.Get().(*panelScratch)
	for panel := lo; panel < hi; panel++ {
		i0 := panel * gemmMR
		rows := min(m-i0, gemmMR)
		var ro [gemmMR]int
		for j := 0; j < rows; j++ {
			ro[j] = v.Off + q*v.T1 + r*v.T2
			if r++; r == v.M2 {
				q, r = q+1, 0
			}
		}
		a, k1, k2, s1, s2 := op.a, groups, v.K2, v.S1, v.S2
		if rows < gemmMR {
			if cap(ps.ap) < gemmMR*k {
				ps.ap = make([]float64, gemmMR*k)
			}
			packA(ps.ap[:gemmMR*k], a, &ro, rows, k1, k2, s1, s2)
			a, ro, k1, k2, s1, s2 = ps.ap[:gemmMR*k], [gemmMR]int{0, 1, 2, 3}, 1, k, 0, gemmMR
		}
		for jc := 0; jc < padN; jc += gemmNR {
			bpanel := b[jc*bjc:]
			cols := min(n-jc, gemmNR)
			if rows == gemmMR && cols == gemmNR {
				gemmKernel(a, &ro, bpanel, op.dst[i0*n+jc:], k1, k2, s1, s2, ldb, n, op.acc)
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
			gemmKernel(a, &ro, bpanel, ct[:], k1, k2, s1, s2, ldb, gemmNR, true)
			for r := 0; r < rows; r++ {
				copy(op.dst[(i0+r)*n+jc:(i0+r)*n+jc+cols], ct[r*gemmNR:r*gemmNR+cols])
			}
		}
	}
	panelScratchPool.Put(ps)
}

// packA copies a short last A panel — its rows r < rows, step q1·k2 + q2
// of row r at a[ro[r] + q1·s1 + q2·s2] — as ap[p*MR+r], zeroing the pad
// rows, so the kernel reads a full MR-row panel without reading past the
// end of A.
func packA(ap, a []float64, ro *[gemmMR]int, rows, k1, k2, s1, s2 int) {
	p := 0
	for q1 := 0; q1 < k1; q1++ {
		for q2 := 0; q2 < k2; q2++ {
			off := q1*s1 + q2*s2
			dst := ap[p*gemmMR : p*gemmMR+gemmMR]
			for r := range dst {
				dst[r] = 0
				if r < rows {
					dst[r] = a[ro[r]+off]
				}
			}
			p++
		}
	}
}

// gemmKernel computes the MR×NR tile c[r*ldc+j] (+)= Σ_p A(r, p) ·
// b[p*ldb+j], A(r, q1·k2 + q2) = a[ro[r] + q1·s1 + q2·s2], one
// exactly-rounded fused multiply-add per product in ascending p. On
// capable amd64 hardware this dispatches to the AVX2 microkernel;
// everywhere else to the math.FMA tile below. Both produce identical
// bits.
func gemmKernel(a []float64, ro *[gemmMR]int, b, c []float64, k1, k2, s1, s2, ldb, ldc int, acc bool) {
	if useFMAKernel {
		fmaKernel4x8(&a[0], ro, &b[0], &c[0], k1, k2, s1, s2, ldb, ldc, acc)
		return
	}
	gemmKernelGeneric(a, ro, b, c, k1, k2, s1, s2, ldb, ldc, acc)
}

// gemmKernelGeneric is the portable register tile: 32 scalar
// accumulators streaming the operands through their strides with
// math.FMA. math.FMA is exactly rounded whether or not the hardware has
// a fused instruction, so this matches the assembly kernel bit for bit.
// Its slice indexing is bounds-checked, so an address the strides carry
// past the end of an operand panics here; the assembly kernel reads
// wherever they point, so gemm checks A's view once per call.
func gemmKernelGeneric(a []float64, ro *[gemmMR]int, b, c []float64, k1, k2, s1, s2, ldb, ldc int, acc bool) {
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
	ro0, ro1, ro2, ro3 := ro[0], ro[1], ro[2], ro[3]
	p := 0
	for q1 := 0; q1 < k1; q1++ {
		for q2 := 0; q2 < k2; q2++ {
			off := q1*s1 + q2*s2
			bpp := b[p*ldb : p*ldb+gemmNR : p*ldb+gemmNR]
			a0 := a[ro0+off]
			c00 = math.FMA(a0, bpp[0], c00)
			c01 = math.FMA(a0, bpp[1], c01)
			c02 = math.FMA(a0, bpp[2], c02)
			c03 = math.FMA(a0, bpp[3], c03)
			c04 = math.FMA(a0, bpp[4], c04)
			c05 = math.FMA(a0, bpp[5], c05)
			c06 = math.FMA(a0, bpp[6], c06)
			c07 = math.FMA(a0, bpp[7], c07)
			a1 := a[ro1+off]
			c10 = math.FMA(a1, bpp[0], c10)
			c11 = math.FMA(a1, bpp[1], c11)
			c12 = math.FMA(a1, bpp[2], c12)
			c13 = math.FMA(a1, bpp[3], c13)
			c14 = math.FMA(a1, bpp[4], c14)
			c15 = math.FMA(a1, bpp[5], c15)
			c16 = math.FMA(a1, bpp[6], c16)
			c17 = math.FMA(a1, bpp[7], c17)
			a2 := a[ro2+off]
			c20 = math.FMA(a2, bpp[0], c20)
			c21 = math.FMA(a2, bpp[1], c21)
			c22 = math.FMA(a2, bpp[2], c22)
			c23 = math.FMA(a2, bpp[3], c23)
			c24 = math.FMA(a2, bpp[4], c24)
			c25 = math.FMA(a2, bpp[5], c25)
			c26 = math.FMA(a2, bpp[6], c26)
			c27 = math.FMA(a2, bpp[7], c27)
			a3 := a[ro3+off]
			c30 = math.FMA(a3, bpp[0], c30)
			c31 = math.FMA(a3, bpp[1], c31)
			c32 = math.FMA(a3, bpp[2], c32)
			c33 = math.FMA(a3, bpp[3], c33)
			c34 = math.FMA(a3, bpp[4], c34)
			c35 = math.FMA(a3, bpp[5], c35)
			c36 = math.FMA(a3, bpp[6], c36)
			c37 = math.FMA(a3, bpp[7], c37)
			p++
		}
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
