package tensor

import (
	"math"
	"testing"
)

// fmaOracle computes one element the way every gemm path must: a single
// exactly-rounded fused multiply-add per k-step, ascending k.
func fmaOracle(init float64, a func(p int) float64, b func(p int) float64, k int) float64 {
	acc := init
	for p := 0; p < k; p++ {
		acc = math.FMA(a(p), b(p), acc)
	}
	return acc
}

func requireBitwise(t *testing.T, got, want *Tensor, what string) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: elem %d = %x, want %x (%g vs %g)", what, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]),
				got.Data[i], want.Data[i])
		}
	}
}

// gemmShapes covers interior-only, ragged-edge, tall-skinny, wide, and
// sub-tile shapes, plus one of many panels.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 5, 1},
	{3, 7, 5},
	{4, 8, 8},
	{5, 9, 17},
	{8, 16, 24},
	{31, 33, 29},
	{32, 64, 64},
	{97, 53, 89},
	{128, 1, 64},
	{1, 64, 256},
	{64, 128, 96},
	{130, 97, 89},
}

func TestMatMulMatchesFMAOracle(t *testing.T) {
	r := NewRNG(3)
	for _, sh := range gemmShapes {
		a := RandN(r, sh.m, sh.k)
		b := RandN(r, sh.k, sh.n)
		got := a.MatMul(b)
		want := New(sh.m, sh.n)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				want.Data[i*sh.n+j] = fmaOracle(0,
					func(p int) float64 { return a.Data[i*sh.k+p] },
					func(p int) float64 { return b.Data[p*sh.n+j] }, sh.k)
			}
		}
		requireBitwise(t, got, want, "MatMul")
	}
}

func TestMatMulTMatchesFMAOracle(t *testing.T) {
	r := NewRNG(4)
	for _, sh := range gemmShapes {
		a := RandN(r, sh.m, sh.k)
		b := RandN(r, sh.n, sh.k)
		got := a.MatMulT(b)
		want := New(sh.m, sh.n)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				want.Data[i*sh.n+j] = fmaOracle(0,
					func(p int) float64 { return a.Data[i*sh.k+p] },
					func(p int) float64 { return b.Data[j*sh.k+p] }, sh.k)
			}
		}
		requireBitwise(t, got, want, "MatMulT")
	}
}

func TestTMatMulAccMatchesFMAOracle(t *testing.T) {
	r := NewRNG(5)
	for _, sh := range gemmShapes {
		a := RandN(r, sh.k, sh.m)
		b := RandN(r, sh.k, sh.n)
		dst := RandN(r, sh.m, sh.n)
		want := New(sh.m, sh.n)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				want.Data[i*sh.n+j] = fmaOracle(dst.Data[i*sh.n+j],
					func(p int) float64 { return a.Data[p*sh.m+i] },
					func(p int) float64 { return b.Data[p*sh.n+j] }, sh.k)
			}
		}
		a.TMatMulAcc(b, dst)
		requireBitwise(t, dst, want, "TMatMulAcc")
	}
}

// TestMatMulAccContinuesTheChain pins what a product over a long k
// relies on when it runs in pieces: a product over k computed as
// consecutive runs of k — A's columns, read in place through a view,
// with B's rows, each accumulated into the last — is bitwise the product
// over all of k, for every split point.
func TestMatMulAccContinuesTheChain(t *testing.T) {
	r := NewRNG(12)
	for _, sh := range gemmShapes {
		a, b := RandN(r, sh.m, sh.k), RandN(r, sh.k, sh.n)
		want := a.MatMul(b)
		for _, run := range []int{1, 3, 8, sh.k} {
			got := New(sh.m, sh.n)
			for lo := 0; lo < sh.k; lo += run {
				hi := min(lo+run, sh.k)
				cols := View{Off: lo, M2: 1, T1: sh.k, K2: hi - lo, S2: 1} // columns [lo, hi) of a
				MatMulViewAcc(a.Data, cols, b.Rows(lo, hi), nil, got)
			}
			requireBitwise(t, got, want, "MatMulViewAcc over runs of k")
		}
	}
}

// TestRowsIsAView: Rows shares t's data, keeps the trailing shape, and is
// t itself for the whole range.
func TestRowsIsAView(t *testing.T) {
	x := RandN(NewRNG(13), 5, 3, 2)
	if x.Rows(0, 5) != x {
		t.Fatal("Rows over every row is not the tensor itself")
	}
	v := x.Rows(1, 3)
	if v.Dim(0) != 2 || v.Dim(1) != 3 || v.Dim(2) != 2 || v.Size() != 12 {
		t.Fatalf("Rows(1, 3) of %v has shape %v", x.Shape(), v.Shape())
	}
	v.Data[0] = 42
	if x.At(1, 0, 0) != 42 {
		t.Fatal("Rows copied instead of sharing the data")
	}
	if v.At(1, 2, 1) != x.At(2, 2, 1) {
		t.Fatal("Rows indexes the wrong rows")
	}
}

// TestGemmRowIndependence pins the property batched inference relies on:
// row i of a large product is bitwise the result of multiplying row i
// alone — regardless of batch size or which kernel path the size picks.
func TestGemmRowIndependence(t *testing.T) {
	r := NewRNG(6)
	const m, k, n = 37, 48, 40
	a := RandN(r, m, k)
	b := RandN(r, k, n)
	full := a.MatMul(b)
	for _, i := range []int{0, 1, 17, m - 1} {
		row := FromSlice(append([]float64(nil), a.Data[i*k:(i+1)*k]...), 1, k)
		single := row.MatMul(b)
		for j := 0; j < n; j++ {
			if math.Float64bits(single.Data[j]) != math.Float64bits(full.Data[i*n+j]) {
				t.Fatalf("row %d col %d: batch result %g != single-row result %g",
					i, j, full.Data[i*n+j], single.Data[j])
			}
		}
	}
}

// TestGemmCloseToReference sanity-checks the fused kernels against the
// unfused naive loops: same math, different rounding, so agreement must
// be tight but is not bitwise.
func TestGemmCloseToReference(t *testing.T) {
	r := NewRNG(8)
	const m, k, n = 33, 41, 27
	a := RandN(r, m, k)
	b := RandN(r, k, n)
	got := a.MatMul(b)
	want := New(m, n)
	a.ReferenceMatMulInto(b, want)
	if !got.Equal(want, 1e-10) {
		t.Fatal("packed MatMul far from naive reference")
	}
}

// TestGemmZeroAllocSteadyState verifies a warmed-up Into-variant matmul
// performs no heap allocations.
func TestGemmZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	r := NewRNG(9)
	a := RandN(r, 64, 64)
	b := RandN(r, 64, 64)
	dst := New(64, 64)
	a.MatMulInto(b, dst) // warm the scratch pools
	allocs := testing.AllocsPerRun(20, func() { a.MatMulInto(b, dst) })
	if allocs != 0 {
		t.Fatalf("MatMulInto steady state allocates %.1f times per op, want 0", allocs)
	}
}

// TestPackedBMatchesUnpacked: a product against a PackedB is bitwise the
// product against the tensor it was packed from, in both layouts and
// both product forms the layers use, also when packed into the panels of
// one packed before at another shape, and the handle is a copy that
// later writes to that tensor do not reach.
func TestPackedBMatchesUnpacked(t *testing.T) {
	r := NewRNG(11)
	var reused *PackedB
	for _, sh := range gemmShapes {
		a := RandN(r, sh.m, sh.k)
		b := RandN(r, sh.k, sh.n)
		bt := RandN(r, sh.n, sh.k)
		pb, pbt := PackInto(nil, b, false), PackInto(nil, bt, true)

		ab := a.MatMul(b)
		requireBitwise(t, a.MatMulPackedInto(pb, New(sh.m, sh.n)), ab, "MatMulPackedInto")
		requireBitwise(t, a.MatMulPackedInto(pbt, New(sh.m, sh.n)), a.MatMulT(bt), "MatMulPackedInto (transposed)")
		reused = PackInto(reused, bt, true)
		requireBitwise(t, a.MatMulPackedInto(reused, New(sh.m, sh.n)), a.MatMulT(bt), "MatMulPackedInto (packed into used panels)")

		at := RandN(r, sh.k, sh.m)
		seed := RandN(r, sh.m, sh.n)
		want := seed.Clone()
		at.TMatMulAcc(b, want)
		requireBitwise(t, MatMulViewAcc(at.Data, transposed(sh.m, sh.k), nil, pb, seed.Clone()), want, "MatMulViewAcc (packed)")

		b.Zero()
		requireBitwise(t, a.MatMulPackedInto(pb, New(sh.m, sh.n)), ab, "MatMulPackedInto after a write to b")
	}
}

func TestPackedBZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := NewRNG(12)
	a := RandN(r, 1, 48)
	pb := PackInto(nil, RandN(r, 64, 48), true)
	dst := New(1, 64)
	a.MatMulPackedInto(pb, dst)
	if allocs := testing.AllocsPerRun(20, func() { a.MatMulPackedInto(pb, dst) }); allocs != 0 {
		t.Fatalf("MatMulPackedInto allocates %.1f times per op, want 0", allocs)
	}
}

// gemmViews are the ways TestGemmOperandLayouts reads an m×k A: plain
// row-major and transposed matrices, and two-level views whose rows and
// steps both come in groups of 3 — a convolution's taps, with rows
// (sample, output step) and steps (channel, tap), and their transpose,
// with rows (channel, tap) and steps (sample, output step). With groups
// of 3 every 4-row tile crosses a group boundary. k must be a multiple
// of 3.
var gemmViews = []struct {
	name string
	view func(m, k int) View
}{
	{"row-major", func(m, k int) View { return rowMajor(k) }},
	{"transposed", func(m, k int) View { return transposed(m, k) }},
	{"conv taps", func(m, k int) View {
		// Channel c spans 7 positions and a sample k/3 channels; step j
		// reads from 2j on, tap kk at kk past that.
		return View{Off: 2, M2: 3, T1: k / 3 * 7, T2: 2, K2: 3, S1: 7, S2: 1}
	}},
	{"conv taps transposed", func(m, k int) View {
		// Channel c spans 7 positions, a sample (m+2)/3 channels.
		return View{Off: 1, M2: 3, T1: 7, T2: 1, K2: 3, S1: (m + 2) / 3 * 7, S2: 2}
	}},
}

// viewAt is the index of A(i, p) of a view, by its definition.
func viewAt(v View, i, p int) int {
	return v.Off + i/v.M2*v.T1 + i%v.M2*v.T2 + p/v.K2*v.S1 + p%v.K2*v.S2
}

// viewSpan is one past the largest index an m×k view reads, by search.
func viewSpan(v View, m, k int) int {
	span := 0
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			span = max(span, viewAt(v, i, p)+1)
		}
	}
	return span
}

// TestGemmOperandLayouts checks every element of C against the FMA oracle
// for each way the kernel can read its operands: A through each of
// gemmViews, read in place or (its short last panel, m%4 rows) copied;
// B read in place, packed because it is transposed, ragged in n or over
// inPlaceBElems, or handed over as a PackedB; acc on and off. Every
// operand is sliced to its exact length — A to one past the largest
// index its view reads — so under -tags purego a stride that carries the
// portable kernel one element past an operand panics.
func TestGemmOperandLayouts(t *testing.T) {
	exact := func(s []float64) []float64 { return s[:len(s):len(s)] }
	layouts := []struct {
		name                 string
		k, n                 int
		trans, packed, packs bool // packs: gemm packs this B itself
	}{
		{"B in place", 9, 16, false, false, false},
		{"B transposed", 9, 16, true, false, true},
		{"B ragged in n", 9, 13, false, false, true},
		{"B over the in-place bound", inPlaceBElems/128 + 1, 128, false, false, true},
		{"PackedB", 9, 20, false, true, false},
		{"PackedB of a transpose", 9, 20, true, true, false},
	}
	r := NewRNG(14)
	for _, l := range layouts {
		k, n := l.k, l.n
		for m := 1; m <= 8; m++ {
			for _, av := range gemmViews {
				v := av.view(m, k)
				span := viewSpan(v, m, k)
				for _, acc := range []bool{false, true} {
					a := exact(RandN(r, span).Data)
					b := exact(RandN(r, k*n).Data)
					dst := exact(RandN(r, m*n).Data)
					init := append([]float64(nil), dst...)
					op := gemmOp{a: a, av: v, b: b, dst: dst, m: m, k: k, n: n, bTrans: l.trans, acc: acc}
					switch {
					case l.packed && l.trans:
						op.b, op.bp = nil, exact(PackInto(nil, FromSlice(b, n, k), true).bp)
					case l.packed:
						op.b, op.bp = nil, exact(PackInto(nil, FromSlice(b, k, n), false).bp)
					}
					if packsB(&op) != l.packs {
						t.Fatalf("%s: k=%d n=%d packs B = %v", l.name, k, n, !l.packs)
					}
					gemm(op)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							start := 0.0
							if acc {
								start = init[i*n+j]
							}
							want := fmaOracle(start,
								func(p int) float64 { return a[viewAt(v, i, p)] },
								func(p int) float64 {
									if l.trans {
										return b[j*k+p]
									}
									return b[p*n+j]
								}, k)
							if math.Float64bits(dst[i*n+j]) != math.Float64bits(want) {
								t.Fatalf("%s, A %s, m=%d acc=%v: C[%d][%d] = %g, want %g",
									l.name, av.name, m, acc, i, j, dst[i*n+j], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmViewBoundsChecked: a view that reads one element past its
// slice, or that is malformed, panics before the kernel runs, in the
// assembly build as in the portable one — the assembly kernel itself
// would read past the slice silently.
func TestGemmViewBoundsChecked(t *testing.T) {
	const m, k, n = 5, 6, 8
	r := NewRNG(15)
	b := RandN(r, k, n)
	fits := View{Off: 1, M2: 2, T1: 9, T2: 3, K2: 3, S1: 4, S2: 1}
	span := viewSpan(fits, m, k)
	a := RandN(r, span).Data
	MatMulViewAcc(a, fits, b, nil, New(m, n)) // reads a[span-1] and stops there
	for _, c := range []struct {
		name string
		a    []float64
		v    View
	}{
		{"one element short", a[:span-1], fits},
		{"offset past the end", a, View{Off: span - k + 1, M2: 1, T1: 0, K2: k, S2: 1}},
		{"K2 not dividing k", a, View{M2: 1, K2: 4, S2: 1}},
		{"negative stride", a, View{Off: span - 1, M2: 1, K2: k, S2: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MatMulViewAcc did not panic", c.name)
				}
			}()
			MatMulViewAcc(c.a, c.v, b, nil, New(m, n))
		}()
	}
}
