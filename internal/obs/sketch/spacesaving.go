// Package sketch provides bounded-memory streaming summaries for
// fleet-scale telemetry: a Space-Saving heavy-hitter sketch and a
// mergeable t-digest quantile sketch. Both are deterministic for a fixed
// input order, allocation-lean, and sized O(K) (respectively O(δ))
// regardless of how many distinct entities or observations stream
// through — the property that lets a single process answer "which of my
// 4034 machines are slow, erroring, or dominating load?" without
// per-entity metric series exploding label cardinality.
//
// Neither sketch is safe for concurrent use on its own; Fleet (fleet.go)
// is the concurrency-safe aggregator the serving path records into.
package sketch

import "sort"

// Item is one monitored key in a SpaceSaving sketch.
type Item struct {
	Key string `json:"key"`
	// Weight is the estimated total weight Added for Key. It never
	// underestimates: true ≤ Weight ≤ true + Err.
	Weight float64 `json:"weight"`
	// Err is the maximum possible overestimation, inherited from the
	// entry this key displaced (0 while the sketch was below capacity
	// when the key entered).
	Err float64 `json:"err,omitempty"`
}

// SpaceSaving is the Metwally–Agrawal–El Abbadi heavy-hitter sketch: it
// monitors at most K keys and guarantees that any key whose true total
// weight exceeds total/K is monitored, with per-key error bounded by the
// smallest monitored weight. Memory is O(K) no matter how many distinct
// keys stream through.
//
// The implementation is deterministic for a fixed Add order: when a new
// key displaces the minimum, ties between equal-weight minima break by
// slot order (oldest slot first), never by map iteration.
type SpaceSaving struct {
	k       int
	index   map[string]int // key → slot in entries
	entries []Item
}

// NewSpaceSaving returns a sketch monitoring at most k keys (k < 1 is
// raised to 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{k: k, index: make(map[string]int, k)}
}

// Len returns how many keys are currently monitored (≤ k).
func (s *SpaceSaving) Len() int { return len(s.entries) }

// Add folds weight w into key and returns the key that was evicted to
// make room, or "" when none was. Non-positive weights are no-ops for
// unmonitored keys (inserting at weight 0 could displace a real entry).
func (s *SpaceSaving) Add(key string, w float64) (evicted string) {
	if i, ok := s.index[key]; ok {
		if w > 0 {
			s.entries[i].Weight += w
		}
		return ""
	}
	if w <= 0 {
		return ""
	}
	if len(s.entries) < s.k {
		s.index[key] = len(s.entries)
		s.entries = append(s.entries, Item{Key: key, Weight: w})
		return ""
	}
	// Displace the minimum-weight entry; the first minimum in slot order
	// keeps eviction deterministic.
	min := 0
	for i := 1; i < len(s.entries); i++ {
		if s.entries[i].Weight < s.entries[min].Weight {
			min = i
		}
	}
	old := s.entries[min]
	delete(s.index, old.Key)
	s.index[key] = min
	s.entries[min] = Item{Key: key, Weight: old.Weight + w, Err: old.Weight}
	return old.Key
}

// TopK returns the monitored items ordered by descending weight, ties
// broken by ascending key — a deterministic "worst offenders" view.
func (s *SpaceSaving) TopK() []Item {
	out := make([]Item, len(s.entries))
	copy(out, s.entries)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Key < out[j].Key
	})
	return out
}
