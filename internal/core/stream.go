package core

import (
	"math"
	"sync/atomic"
)

// This file keeps an entity's last forecast beside its ring, so a read
// with no new sample computes nothing. The caller keeps one slot per
// entity next to the entity's ring and guards it with the ring's lock;
// an engine stores there the forecast it served, keyed by the snapshot
// that computed it and by the ring's sample count (Ring.Total) when the
// window was read. A read is then
//
//   - a hit, when the key still holds — same snapshot, no sample since:
//     a copy of the stored forecast, with no PrepareInput and no forward;
//   - a refill otherwise — a new snapshot (swap or rollback), a slot the
//     ring lost (eviction, a new entity) or any new sample: the window
//     is prepared and forwarded as every read was before, and its
//     forecast is stored for the next read.
//
// A hit is bitwise the refill it repeats, which is bitwise ForecastFrom
// over the same window: the window is a fixed function of the ring's
// samples, and the ring only changes by accepting a sample, which moves
// Total.

// StreamOutcome is how an entity read was served.
type StreamOutcome int

// The outcomes, in the order the metrics list them.
const (
	StreamHit StreamOutcome = iota
	StreamRefill
)

// String returns the outcome's metric label.
func (o StreamOutcome) String() string {
	if o == StreamHit {
		return "hit"
	}
	return "refill"
}

// snapshotEpoch numbers snapshots process-wide, so a stored forecast
// names the snapshot that computed it without keeping it alive.
// Generations do not serve: Fit and Load restart them at 1.
var snapshotEpoch atomic.Uint64

// streamState is one entity's stored forecast and the key it is current
// at: the snapshot's epoch (0: none yet) and the ring's sample count.
type streamState struct {
	epoch    uint64
	total    int
	gen      int64
	forecast []float64 // denormalized, what a hit answers
}

// serving returns the snapshot the engine serves: its pinned candidate's
// or the predictor's published one.
func (si *ShardInferencer) serving() *snapshot {
	if si.pin != nil {
		return si.pin
	}
	return si.p.serving.Load()
}

// StreamHit appends to dst the forecast *slot holds when it is current —
// computed by the snapshot the engine serves, for a ring that had
// accepted total samples, as the ring now has — with its generation. On
// a miss it leaves a state in *slot (the one there, or a new one) for
// StreamKeep to fill once the read's forward has run. It reads no engine
// scratch, so it is safe for concurrent use; the caller holds the lock
// that guards slot.
func (si *ShardInferencer) StreamHit(dst []float64, total int, slot *any) ([]float64, int64, bool) {
	st, _ := (*slot).(*streamState)
	if st == nil {
		*slot = &streamState{}
		return dst, 0, false
	}
	s := si.serving()
	if s == nil || st.epoch != s.epoch || st.total != total {
		return dst, 0, false
	}
	return append(dst, st.forecast...), st.gen, true
}

// StreamKeep stores forecast in state, a state StreamHit left in a slot:
// the answer of the engine's last ForecastBatchGen for a window read when
// its ring had accepted total samples. A forecast that is not finite is
// not kept. The caller holds the lock that guards the slot, and the slot
// still holds state — a ring evicted since the read took its slot along.
func (si *ShardInferencer) StreamKeep(state any, total int, forecast []float64) {
	st, _ := state.(*streamState)
	if st == nil || si.ran == nil || !finite(forecast) {
		return
	}
	if len(st.forecast) != len(forecast) {
		st.forecast = make([]float64, len(forecast))
	}
	copy(st.forecast, forecast)
	st.epoch, st.total, st.gen = si.ran.epoch, total, si.ran.gen
}

// finite reports whether every value of xs is finite.
func finite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
