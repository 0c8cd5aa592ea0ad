package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Dims() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape: %v", x.Shape())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestNewNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajorLayout(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.Data[5] != 7 {
		t.Fatalf("row-major layout violated: Data=%v", x.Data)
	}
	if x.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %g, want 7", x.At(1, 2))
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape should share underlying data")
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("Reshape layout wrong: %v", y.Data)
	}
}

func TestReshapeSizeMismatchPanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on reshape size mismatch")
		}
	}()
	x.Reshape(4, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Fatal("Clone must not share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := a.Add(b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a).Data; got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Mul(b).Data; got[1] != 10 {
		t.Fatalf("Mul = %v", got)
	}
	if got := a.Scale(2).Data; got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2)
	b := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a.Add(b)
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 4, 2, 3}, 4)
	if x.Sum() != 8 {
		t.Fatalf("Sum = %g", x.Sum())
	}
	if x.Mean() != 2 {
		t.Fatalf("Mean = %g", x.Mean())
	}
	if x.Max() != 4 || x.Min() != -1 {
		t.Fatalf("Max/Min = %g/%g", x.Max(), x.Min())
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float64{10, 20, 30}, 3)
	s := x.SumRowsAcc(FromSlice([]float64{1, 1, 1}, 3))
	if s.Data[0] != 6 || s.Data[1] != 8 || s.Data[2] != 10 {
		t.Fatalf("SumRowsAcc = %v", s.Data)
	}
	y := x.AddRowVectorInPlace(v)
	if y != x || y.At(0, 0) != 11 || y.At(1, 2) != 36 {
		t.Fatalf("AddRowVectorInPlace = %v", y.Data)
	}
}

func TestMatMulKnownResult(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := a.MatMul(b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dimension mismatch")
		}
	}()
	a.MatMul(b)
}

// TestMatMulParallelMatchesSequential checks a product of many panels,
// ragged in every dimension, against the reference loops.
func TestMatMulParallelMatchesSequential(t *testing.T) {
	r := NewRNG(1)
	const m, k, n = 97, 53, 89
	a := RandN(r, m, k)
	b := RandN(r, k, n)
	got := a.MatMul(b)
	want := New(m, n)
	a.ReferenceMatMulInto(b, want)
	if !got.Equal(want, 1e-12) {
		t.Fatal("MatMul disagrees with the reference loops")
	}
}

// transpose is the explicit transpose the product tests compare against.
func transpose(x *Tensor) *Tensor {
	m, n := x.Dim(0), x.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = x.Data[i*n+j]
		}
	}
	return out
}

func TestMatMulTAndTMatMul(t *testing.T) {
	r := NewRNG(2)
	a := RandN(r, 5, 7)
	b := RandN(r, 9, 7)
	got := a.MatMulT(b)
	want := a.MatMul(transpose(b))
	if !got.Equal(want, 1e-12) {
		t.Fatal("MatMulT disagrees with explicit transpose")
	}
	d := RandN(r, 9, 4)
	got3 := b.TMatMul(d)
	want3 := transpose(b).MatMul(d)
	if !got3.Equal(want3, 1e-12) {
		t.Fatal("TMatMul disagrees with explicit transpose")
	}
}

func TestRNGReproducible(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %g, want ~1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSeedZeroNonDegenerate(t *testing.T) {
	r := NewRNG(0)
	a, b := r.Uint64(), r.Uint64()
	if a == 0 && b == 0 {
		t.Fatal("seed 0 produced a degenerate stream")
	}
}

// Property: (a+b)-b == a elementwise, up to float rounding.
func TestPropertyAddSubRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := RandN(r, 4, 5)
		b := RandN(r, 4, 5)
		return a.Add(b).Sub(b).Equal(a, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := RandN(r, 6, 4)
		b := RandN(r, 4, 5)
		c := RandN(r, 4, 5)
		lhs := a.MatMul(b.Add(c))
		rhs := a.MatMul(b).Add(a.MatMul(c))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ == BᵀAᵀ.
func TestPropertyTransposeOfProduct(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := RandN(r, 3, 6)
		b := RandN(r, 6, 4)
		lhs := transpose(a.MatMul(b))
		rhs := transpose(b).MatMul(transpose(a))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if small.String() == "" {
		t.Fatal("empty String for small tensor")
	}
	large := New(100)
	if large.String() == "" {
		t.Fatal("empty String for large tensor")
	}
}
