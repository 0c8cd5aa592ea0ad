package trace

import (
	"sync"
	"testing"
)

func ringVals(base float64) *[NumIndicators]float64 {
	var v [NumIndicators]float64
	for i := range v {
		v[i] = base + float64(i)/10
	}
	return &v
}

// TestRingWindowContiguity fills a ring past wraparound and checks every
// trailing window is the correct, oldest-first view at every fill level.
func TestRingWindowContiguity(t *testing.T) {
	const capacity = 4
	r := NewRing(capacity)
	for s := 1; s <= 11; s++ {
		if !r.Append(s*10, ringVals(float64(s))) {
			t.Fatalf("append %d rejected", s)
		}
		held := s
		if held > capacity {
			held = capacity
		}
		if r.Len() != held {
			t.Fatalf("after %d appends Len = %d, want %d", s, r.Len(), held)
		}
		for n := 1; n <= held; n++ {
			win := r.Window(n)
			if len(win) != NumIndicators {
				t.Fatalf("window has %d series", len(win))
			}
			for i := 0; i < NumIndicators; i++ {
				if len(win[i]) != n {
					t.Fatalf("window(%d) series %d has %d samples", n, i, len(win[i]))
				}
				for j := 0; j < n; j++ {
					want := float64(s-n+1+j) + float64(i)/10
					if win[i][j] != want {
						t.Fatalf("after %d appends window(%d)[%d][%d] = %g, want %g",
							s, n, i, j, win[i][j], want)
					}
				}
			}
		}
	}
	// Requests beyond what the ring holds clamp to Len.
	if got := r.Window(99); len(got[0]) != capacity {
		t.Fatalf("oversized window has %d samples, want %d", len(got[0]), capacity)
	}
}

// TestRingRejectsNonAdvancingTimestamps pins the streaming replacement
// for the batch loader's sort-and-dedup pass.
func TestRingRejectsNonAdvancingTimestamps(t *testing.T) {
	r := NewRing(8)
	if !r.Append(10, ringVals(1)) {
		t.Fatal("first append rejected")
	}
	if r.Append(10, ringVals(2)) {
		t.Fatal("duplicate timestamp accepted")
	}
	if r.Append(5, ringVals(3)) {
		t.Fatal("regressing timestamp accepted")
	}
	if !r.Append(20, ringVals(4)) {
		t.Fatal("advancing append rejected")
	}
	if r.Len() != 2 || r.LastTS() != 20 {
		t.Fatalf("len=%d lastTS=%d", r.Len(), r.LastTS())
	}
	if got := r.Window(2); got[0][0] != 1 || got[0][1] != 4 {
		t.Fatalf("window = %v: rejected samples leaked in", got[0])
	}
}

// TestRingInterval checks interval estimation over the accepted span.
func TestRingInterval(t *testing.T) {
	r := NewRing(4)
	if r.Interval() != 10 {
		t.Fatalf("default interval = %d, want 10", r.Interval())
	}
	r.Append(0, ringVals(1))
	r.Append(30, ringVals(2))
	r.Append(60, ringVals(3))
	if r.Interval() != 30 {
		t.Fatalf("interval = %d, want 30", r.Interval())
	}
}

// TestRingStoreIngestAndWindow drives the store through the ScanCSV
// callback shape and reads windows back.
func TestRingStoreIngestAndWindow(t *testing.T) {
	s := NewRingStore(4)
	for i := 1; i <= 6; i++ {
		if !s.Ingest([]byte("m_1"), i*10, ringVals(float64(i))) {
			t.Fatalf("ingest %d rejected", i)
		}
	}
	s.IngestString("m_2", 10, ringVals(100))
	if s.Len() != 2 {
		t.Fatalf("entities = %d", s.Len())
	}
	if ids := s.Entities(); len(ids) != 2 || ids[0] != "m_1" || ids[1] != "m_2" {
		t.Fatalf("order = %v", ids)
	}
	ok := s.WithWindow("m_1", 3, func(win [][]float64, interval, lastTS int) {
		if lastTS != 60 || interval != 10 {
			t.Fatalf("lastTS=%d interval=%d", lastTS, interval)
		}
		if win[0][0] != 4 || win[0][1] != 5 || win[0][2] != 6 {
			t.Fatalf("window = %v", win[0])
		}
	})
	if !ok {
		t.Fatal("known entity reported missing")
	}
	if s.WithWindow("nope", 3, func([][]float64, int, int) {}) {
		t.Fatal("unknown entity reported present")
	}
	if s.SampleCount("m_1") != 4 || s.SampleCount("nope") != 0 {
		t.Fatalf("sample counts: %d, %d", s.SampleCount("m_1"), s.SampleCount("nope"))
	}
}

// TestRingStoreConcurrentIngest hammers the store from many goroutines
// (run under -race in CI), half of them per row and half in runs of 8,
// and checks per-entity integrity after.
func TestRingStoreConcurrentIngest(t *testing.T) {
	const writers, samples, runLen = 8, 200, 8
	s := NewRingStore(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := []byte{'m', '_', byte('a' + w)}
			run := make([]Sample, 0, runLen)
			for i := 1; i <= samples; i++ {
				if w%2 == 0 {
					s.Ingest(id, i, ringVals(float64(i)))
					continue
				}
				if run = append(run, Sample{TS: i, Vals: *ringVals(float64(i))}); len(run) == runLen {
					s.IngestRun(id, run)
					run = run[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers {
		t.Fatalf("entities = %d, want %d", s.Len(), writers)
	}
	for _, id := range s.Entities() {
		s.WithWindow(id, 64, func(win [][]float64, _, lastTS int) {
			if lastTS != samples || len(win[0]) != 64 {
				t.Fatalf("%s: lastTS=%d len=%d", id, lastTS, len(win[0]))
			}
			for j, v := range win[0] {
				if want := float64(samples - 64 + 1 + j); v != want {
					t.Fatalf("%s: window[%d] = %g, want %g", id, j, v, want)
				}
			}
		})
	}
}

// TestRingStoreLRUEviction: a bounded store evicts the least recently
// touched entity (reads count as touches) when a new one arrives past
// the cap, and counts every eviction.
func TestRingStoreLRUEviction(t *testing.T) {
	s := NewBoundedRingStore(8, 3)
	for i, id := range []string{"m_a", "m_b", "m_c"} {
		s.IngestString(id, 10+i, ringVals(float64(i)))
	}
	// Touch m_a (oldest write) via a read: m_b becomes the LRU.
	if !s.WithWindow("m_a", 1, func([][]float64, int, int) {}) {
		t.Fatal("m_a missing before eviction")
	}
	s.IngestString("m_d", 40, ringVals(4))
	if s.Len() != 3 {
		t.Fatalf("entities = %d, want 3 (cap)", s.Len())
	}
	if s.WithWindow("m_b", 1, func([][]float64, int, int) {}) {
		t.Fatal("LRU entity m_b survived past the cap")
	}
	for _, id := range []string{"m_a", "m_c", "m_d"} {
		if !s.WithWindow(id, 1, func([][]float64, int, int) {}) {
			t.Fatalf("%s evicted, want m_b", id)
		}
	}
	if ids := s.Entities(); len(ids) != 3 || ids[0] != "m_a" || ids[1] != "m_c" || ids[2] != "m_d" {
		t.Fatalf("order after eviction = %v", ids)
	}
	if s.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", s.Evicted())
	}
	// A re-appearing evicted entity gets a fresh ring and evicts again.
	s.IngestString("m_b", 99, ringVals(9))
	if s.Evicted() != 2 || s.Len() != 3 {
		t.Fatalf("after churn: evicted=%d len=%d", s.Evicted(), s.Len())
	}
	if s.SampleCount("m_b") != 1 {
		t.Fatalf("re-created entity has %d samples, want fresh ring with 1", s.SampleCount("m_b"))
	}
}

// TestRingStoreIngestZeroAlloc pins the hot-path claim: a sample for an
// already-known entity allocates nothing.
func TestRingStoreIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	s := NewRingStore(32)
	id := []byte("m_hot")
	vals := ringVals(1)
	ts := 0
	s.Ingest(id, ts, vals)
	allocs := testing.AllocsPerRun(1000, func() {
		ts++
		s.Ingest(id, ts, vals)
	})
	if allocs != 0 {
		t.Fatalf("hot-path ingest allocates %.2f per sample, want 0", allocs)
	}
}

// TestRingStoreIngestRunZeroAlloc is the same claim for a run of samples:
// one lookup and one lock for the run, and no allocation.
func TestRingStoreIngestRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation defeats escape analysis; allocation counts are meaningless")
	}
	s := NewRingStore(32)
	id := []byte("m_hot")
	run := make([]Sample, 8)
	ts := 0
	advance := func() {
		for i := range run {
			ts++
			run[i] = Sample{TS: ts, Vals: *ringVals(float64(ts))}
		}
	}
	advance()
	s.IngestRun(id, run)
	allocs := testing.AllocsPerRun(1000, func() {
		advance()
		if rejected := s.IngestRun(id, run); rejected != 0 {
			t.Fatalf("%d of an advancing run rejected", rejected)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot-path run ingest allocates %.2f per run, want 0", allocs)
	}
}

// TestRingStoreLRUMatchesReference drives a bounded store with a long
// random mix of writes, reads and never-seen entities and checks it
// against the definition: a recency list, front evicted when a newcomer
// finds the store full. After every operation the survivors must be the
// reference's, in first-seen order, so the heap's lazy revalidation and
// the tombstoned order slice pick the same victims in the same sequence
// as the linear scan they replace.
func TestRingStoreLRUMatchesReference(t *testing.T) {
	const maxEnt, ops = 16, 20000
	s := NewBoundedRingStore(4, maxEnt)
	var recency, firstSeen []string // least recent first; oldest first
	drop := func(xs []string, id string) []string {
		for i, x := range xs {
			if x == id {
				return append(xs[:i:i], xs[i+1:]...)
			}
		}
		return xs
	}
	seed := uint64(42)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed >> 33 % uint64(n))
	}
	for op, evictions := 0, 0; op < ops; op++ {
		id := "e" + string(rune('A'+next(40)))
		known := len(drop(recency, id)) != len(recency)
		if next(3) == 0 {
			if s.WithWindow(id, 1, func([][]float64, int, int) {}) != known {
				t.Fatalf("op %d: read of %s found=%v, reference says %v", op, id, !known, known)
			}
			if !known {
				continue
			}
		} else {
			s.IngestString(id, op+1, ringVals(float64(op)))
			if !known {
				if len(recency) == maxEnt {
					firstSeen = drop(firstSeen, recency[0])
					recency = recency[1:]
					evictions++
				}
				firstSeen = append(firstSeen, id)
			}
		}
		recency = append(drop(recency, id), id)
		got := s.Entities()
		if len(got) != len(firstSeen) || s.Evicted() != uint64(evictions) {
			t.Fatalf("op %d: %d entities, %d evictions; reference %d, %d", op, len(got), s.Evicted(), len(firstSeen), evictions)
		}
		for i := range got {
			if got[i] != firstSeen[i] {
				t.Fatalf("op %d: entities %v, reference %v", op, got, firstSeen)
			}
		}
	}
}

// TestRingStoreSlot pins the serving slot's contract: it keeps what the
// serving layer put there across reads and ingests, WithSlot reports the
// ring's accepted-sample count beside it, a panic in fn releases the
// entity's lock, and eviction drops the slot with the ring.
func TestRingStoreSlot(t *testing.T) {
	s := NewBoundedRingStore(8, 1)
	var vals [NumIndicators]float64
	s.IngestString("a", 10, &vals)
	s.WithSlot("a", 4, func(win [][]float64, total int, slot *any) {
		if total != 1 || len(win[0]) != 1 || *slot != nil {
			t.Fatalf("first use: total %d, window %d, slot %v", total, len(win[0]), *slot)
		}
		*slot = "state"
	})
	s.IngestString("a", 20, &vals)
	func() {
		defer func() { recover() }()
		s.WithSlot("a", 4, func(_ [][]float64, total int, slot *any) {
			if total != 2 || *slot != "state" {
				t.Fatalf("after an ingest: total %d, slot %v", total, *slot)
			}
			panic("fn fails")
		})
	}()
	s.IngestString("a", 30, &vals) // would deadlock had the panic kept the lock
	s.IngestString("b", 10, &vals) // evicts a
	s.IngestString("a", 10, &vals)
	s.WithSlot("a", 4, func(_ [][]float64, total int, slot *any) {
		if total != 1 || *slot != nil {
			t.Fatalf("after eviction: total %d, slot %v", total, *slot)
		}
	})
	if s.WithSlot("c", 4, func([][]float64, int, *any) { t.Fatal("fn ran for an unknown entity") }) {
		t.Fatal("WithSlot found an unknown entity")
	}
}
