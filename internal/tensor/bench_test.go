package tensor

import "testing"

func benchMatMul(b *testing.B, m, k, n int) {
	r := NewRNG(1)
	x := RandN(r, m, k)
	y := RandN(r, k, n)
	x.MatMul(y) // warm the scratch pools so b.N=1 runs don't count pool misses
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.MatMul(y)
	}
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
}

func BenchmarkMatMulSmall(b *testing.B)  { benchMatMul(b, 32, 32, 32) }
func BenchmarkMatMulMedium(b *testing.B) { benchMatMul(b, 128, 128, 128) }
func BenchmarkMatMulLarge(b *testing.B)  { benchMatMul(b, 512, 512, 512) }

func BenchmarkMatMulTallSkinny(b *testing.B) { benchMatMul(b, 1024, 16, 64) }

func BenchmarkMatMulT(b *testing.B) {
	r := NewRNG(2)
	x := RandN(r, 64, 128)
	y := RandN(r, 96, 128)
	x.MatMulT(y) // pool warmup
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.MatMulT(y)
	}
}

func BenchmarkTMatMul(b *testing.B) {
	r := NewRNG(3)
	x := RandN(r, 128, 64)
	y := RandN(r, 128, 96)
	x.TMatMul(y) // pool warmup
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.TMatMul(y)
	}
}

func BenchmarkElementwiseAdd(b *testing.B) {
	r := NewRNG(4)
	x := RandN(r, 1<<16)
	y := RandN(r, 1<<16)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Add(y)
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	r := NewRNG(5)
	for i := 0; i < b.N; i++ {
		r.NormFloat64()
	}
}
