package sketch

import (
	"fmt"
	"reflect"
	"testing"
)

// lcg is a tiny deterministic generator so tests never touch math/rand's
// global state.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

func (l *lcg) intn(n int) int { return int(l.next() >> 33 % uint64(n)) }

func (l *lcg) float() float64 { return float64(l.next()>>11) / (1 << 53) }

func TestSpaceSavingExactBelowCapacity(t *testing.T) {
	s := NewSpaceSaving(8)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			if ev := s.Add(fmt.Sprintf("k%d", i), 1); ev != "" {
				t.Fatalf("unexpected eviction %q below capacity", ev)
			}
		}
	}
	for i := 0; i < 5; i++ {
		it, ok := estimate(s, fmt.Sprintf("k%d", i))
		if !ok || it.Weight != float64(i+1) || it.Err != 0 {
			t.Fatalf("k%d = %+v, ok=%v; want exact count %d", i, it, ok, i+1)
		}
	}
	top := s.TopK()
	if top[0].Key != "k4" || top[len(top)-1].Key != "k0" {
		t.Fatalf("topk order = %v", top)
	}
}

func TestSpaceSavingHeavyHittersSurviveChurn(t *testing.T) {
	// 3 heavy keys drown in 1000 distinct light keys; the heavies must
	// stay monitored with bounded overestimation.
	s := NewSpaceSaving(16)
	rng := lcg(7)
	true_ := map[string]float64{"hot_a": 0, "hot_b": 0, "hot_c": 0}
	for i := 0; i < 30000; i++ {
		if rng.intn(10) < 6 {
			k := []string{"hot_a", "hot_b", "hot_c"}[rng.intn(3)]
			s.Add(k, 1)
			true_[k]++
		} else {
			s.Add(fmt.Sprintf("cold_%d", rng.intn(1000)), 1)
		}
	}
	for k, want := range true_ {
		it, ok := estimate(s, k)
		if !ok {
			t.Fatalf("heavy hitter %s evicted", k)
		}
		if it.Weight < want {
			t.Fatalf("%s estimate %v underestimates true %v", k, it.Weight, want)
		}
		if it.Weight-it.Err > want {
			t.Fatalf("%s estimate %v - err %v exceeds true %v", k, it.Weight, it.Err, want)
		}
	}
	if s.Len() != 16 {
		t.Fatalf("len = %d, want capacity 16", s.Len())
	}
}

func TestSpaceSavingDeterministicForFixedOrder(t *testing.T) {
	run := func() []Item {
		s := NewSpaceSaving(8)
		rng := lcg(42)
		for i := 0; i < 5000; i++ {
			s.Add(fmt.Sprintf("e%d", rng.intn(300)), 1+rng.float())
		}
		return s.TopK()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same input order produced different top-K:\n%v\n%v", a, b)
	}
}

func TestSpaceSavingEvictionReported(t *testing.T) {
	s := NewSpaceSaving(2)
	s.Add("a", 5)
	s.Add("b", 3)
	if ev := s.Add("c", 1); ev != "b" {
		t.Fatalf("evicted %q, want b (the minimum)", ev)
	}
	it, _ := estimate(s, "c")
	if it.Weight != 4 || it.Err != 3 {
		t.Fatalf("c = %+v, want weight 4 err 3", it)
	}
	if _, ok := estimate(s, "b"); ok {
		t.Fatal("b still monitored after eviction")
	}
}

func TestSpaceSavingZeroWeightNoops(t *testing.T) {
	s := NewSpaceSaving(1)
	s.Add("a", 2)
	if ev := s.Add("b", 0); ev != "" {
		t.Fatalf("zero-weight insert evicted %q", ev)
	}
	if _, ok := estimate(s, "b"); ok {
		t.Fatal("zero-weight key monitored")
	}
}

// estimate returns the monitored item for key, or false when the key is
// not monitored.
func estimate(s *SpaceSaving, key string) (Item, bool) {
	i, ok := s.index[key]
	if !ok {
		return Item{}, false
	}
	return s.entries[i], true
}
