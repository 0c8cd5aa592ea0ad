package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversRange(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 7, 31, 32, 33, 1000} {
		hit := make([]int32, n)
		p.Run(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hit[i], 1)
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestRunChunksBoundariesIndependentOfWorkers(t *testing.T) {
	// The determinism contract: chunk boundaries are a function of (n,
	// grain) only. Record them under 1 and 8 workers and compare.
	boundaries := func(workers int) [][2]int {
		p := NewPool(workers)
		defer p.Close()
		n, grain := 1003, 17
		out := make([][2]int, numChunks(n, grain))
		p.RunChunks(n, grain, func(chunk, lo, hi int) {
			out[chunk] = [2]int{lo, hi}
		})
		return out
	}
	a, b := boundaries(1), boundaries(8)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d boundaries differ: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestChunkedReductionBitwiseStable(t *testing.T) {
	// A floating-point sum reduced per chunk and folded in chunk order
	// must be bit-identical across worker counts.
	data := make([]float64, 4099)
	for i := range data {
		data[i] = 1.0 / float64(i+3)
	}
	sum := func(workers int) float64 {
		p := NewPool(workers)
		defer p.Close()
		const grain = 256
		partials := make([]float64, numChunks(len(data), grain))
		p.RunChunks(len(data), grain, func(chunk, lo, hi int) {
			s := 0.0
			for _, v := range data[lo:hi] {
				s += v
			}
			partials[chunk] = s
		})
		total := 0.0
		for _, s := range partials {
			total += s
		}
		return total
	}
	s1 := sum(1)
	for _, w := range []int{2, 3, 8} {
		if sw := sum(w); sw != s1 {
			t.Fatalf("workers=%d sum %v != workers=1 sum %v", w, sw, s1)
		}
	}
}

func TestPoolCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(8)
	p.Run(100, func(lo, hi int) {})
	p.Close()
	// Helpers exit synchronously in Close (wg.Wait), but give the runtime
	// a beat to retire them before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, got)
	}
	// Run after Close degrades to inline execution rather than hanging.
	done := int32(0)
	p.Run(10, func(lo, hi int) { atomic.AddInt32(&done, int32(hi-lo)) })
	if done != 10 {
		t.Fatalf("post-Close Run covered %d of 10", done)
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		defer func(p *Pool) { p.Close() }(p)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if !strings.Contains(r.(string), "kernel exploded") {
					t.Fatalf("workers=%d: panic value %v lost the original message", workers, r)
				}
			}()
			p.Run(100, func(lo, hi int) {
				if lo == 0 {
					panic("kernel exploded")
				}
			})
		}()
		// The pool must remain usable after a panic.
		n := int32(0)
		p.Run(50, func(lo, hi int) { atomic.AddInt32(&n, int32(hi-lo)) })
		if n != 50 {
			t.Fatalf("workers=%d: pool broken after panic (covered %d/50)", workers, n)
		}
	}
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		var total atomic.Int64
		p.Run(16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				// Inner Run from inside a worker: must complete even with
				// every helper busy on the outer task.
				p.Run(32, func(ilo, ihi int) {
					total.Add(int64(ihi - ilo))
				})
			}
		})
		if total.Load() != 16*32 {
			t.Errorf("nested Run covered %d of %d", total.Load(), 16*32)
		}
	}()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Run deadlocked")
	}
}

// TestRunInsideATaskMakesNoHandOff: a Run or RunChunks issued while the
// pool has a task in flight hands nothing to a helper. The inner Run is
// one inline call over its whole range, and the inner chunks run in order
// on the goroutine that issued them — their unsynchronised record would
// be a data race under -race if one ran elsewhere.
func TestRunInsideATaskMakesNoHandOff(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var outer atomic.Int32
	p.RunChunks(8, 1, func(_, _, _ int) {
		outer.Add(1)
		calls := 0
		p.Run(1024, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 1024 {
				t.Errorf("inner Run got [%d, %d), want the whole range in one call", lo, hi)
			}
		})
		if calls != 1 {
			t.Errorf("inner Run made %d calls, want 1", calls)
		}
		var order []int
		p.RunChunks(64, 4, func(c, _, _ int) { order = append(order, c) })
		for i, c := range order {
			if c != i {
				t.Errorf("inner chunks ran in order %v, want 0..15 in turn", order)
				break
			}
		}
	})
	if outer.Load() != 8 {
		t.Fatalf("outer task ran %d of 8 chunks", outer.Load())
	}
}

func TestSetWorkersSwapsDefaultPool(t *testing.T) {
	orig := SetWorkers(3)
	defer SetWorkers(orig)
	if got := Default().workers; got != 3 {
		t.Fatalf("default pool has %d workers after SetWorkers(3)", got)
	}
	covered := int32(0)
	Run(100, func(lo, hi int) { atomic.AddInt32(&covered, int32(hi-lo)) })
	if covered != 100 {
		t.Fatalf("default pool Run covered %d/100", covered)
	}
}
