package tensor

import (
	"math"
	"testing"

	"repro/internal/par"
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
// sub-tile shapes, plus one big enough to cross the parallel threshold.
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

// TestMatMulAccContinuesTheChain pins what a split training pass relies
// on for its kernel gradients: a product over k computed as consecutive
// runs of k — A's columns with B's rows, a first MatMulInto and then
// MatMulAcc for each later run — is bitwise the product over all of k,
// for every split point and on both sides of the parallel threshold.
func TestMatMulAccContinuesTheChain(t *testing.T) {
	r := NewRNG(12)
	for _, sh := range gemmShapes {
		a, b := RandN(r, sh.m, sh.k), RandN(r, sh.k, sh.n)
		want := a.MatMul(b)
		for _, run := range []int{1, 3, 8, sh.k} {
			got := New(sh.m, sh.n)
			for lo := 0; lo < sh.k; lo += run {
				hi := min(lo+run, sh.k)
				ab := New(sh.m, hi-lo) // columns [lo, hi) of a
				for i := 0; i < sh.m; i++ {
					copy(ab.Data[i*(hi-lo):(i+1)*(hi-lo)], a.Data[i*sh.k+lo:i*sh.k+hi])
				}
				if lo == 0 {
					ab.MatMulInto(b.Rows(lo, hi), got)
				} else {
					ab.MatMulAcc(b.Rows(lo, hi), got)
				}
			}
			requireBitwise(t, got, want, "MatMulAcc over runs of k")
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

// TestGemmWorkerCountInvariance reruns the same large products under
// 1, 2 and 4 workers and demands bitwise identical results.
func TestGemmWorkerCountInvariance(t *testing.T) {
	r := NewRNG(7)
	const m, k, n = 130, 67, 75 // crosses parallelFlops, ragged in every dim
	a := RandN(r, m, k)
	b := RandN(r, k, n)
	bT := RandN(r, n, k)
	aT := RandN(r, k, m)
	acc0 := RandN(r, m, n)

	type result struct{ mm, mmt, tmm *Tensor }
	runAll := func(workers int) result {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		acc := FromSlice(append([]float64(nil), acc0.Data...), m, n)
		return result{a.MatMul(b), a.MatMulT(bT), aT.TMatMulAcc(b, acc)}
	}
	base := runAll(1)
	for _, w := range []int{2, 4} {
		got := runAll(w)
		requireBitwise(t, got.mm, base.mm, "MatMul workers")
		requireBitwise(t, got.mmt, base.mmt, "MatMulT workers")
		requireBitwise(t, got.tmm, base.tmm, "TMatMulAcc workers")
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
// both product forms the layers use, and the handle is a copy that
// later writes to that tensor do not reach.
func TestPackedBMatchesUnpacked(t *testing.T) {
	r := NewRNG(11)
	for _, sh := range gemmShapes {
		a := RandN(r, sh.m, sh.k)
		b := RandN(r, sh.k, sh.n)
		bt := RandN(r, sh.n, sh.k)
		pb, pbt := PackB(b), PackBT(bt)

		ab := a.MatMul(b)
		requireBitwise(t, a.MatMulPackedInto(pb, New(sh.m, sh.n)), ab, "MatMulPackedInto")
		requireBitwise(t, a.MatMulPackedInto(pbt, New(sh.m, sh.n)), a.MatMulT(bt), "MatMulPackedInto (PackBT)")

		at := RandN(r, sh.k, sh.m)
		seed := RandN(r, sh.m, sh.n)
		want := seed.Clone()
		at.TMatMulAcc(b, want)
		requireBitwise(t, at.TMatMulAccPacked(pb, seed.Clone()), want, "TMatMulAccPacked")

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
	pb := PackBT(RandN(r, 64, 48))
	dst := New(1, 64)
	a.MatMulPackedInto(pb, dst)
	if allocs := testing.AllocsPerRun(20, func() { a.MatMulPackedInto(pb, dst) }); allocs != 0 {
		t.Fatalf("MatMulPackedInto allocates %.1f times per op, want 0", allocs)
	}
}
