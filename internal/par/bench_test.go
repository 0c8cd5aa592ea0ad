package par

import "testing"

// BenchmarkParDispatch measures the fixed cost of waking the pool and
// claiming all chunks of an empty task — the overhead each dispatch of a
// pass's row chunks (internal/nn/chain.go) must amortize.
func BenchmarkParDispatch(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Run(1024, func(lo, hi int) {})
	}
}

// BenchmarkParDispatchInline is the same task on a 1-worker pool (pure
// inline execution): the floor the pooled dispatch is compared against.
func BenchmarkParDispatchInline(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Run(1024, func(lo, hi int) {})
	}
}
