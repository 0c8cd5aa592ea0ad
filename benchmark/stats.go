package main

import (
	"fmt"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank; xs is sorted in
// place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies records one latency per measured op with the time it completed,
// so the tail can be taken per window of the phase.
type latencies struct {
	ns  []float64 // latency of each sample
	at  []float64 // completion time, ns since the phase started
	ops []float64 // successful ops the sample stands for
}

func (l *latencies) add(lat, sincePhaseStart time.Duration, ops int64) {
	l.ns = append(l.ns, float64(lat))
	l.at = append(l.at, float64(sincePhaseStart))
	l.ops = append(l.ops, float64(ops))
}

func (l *latencies) p50ms() float64 {
	return median(slices.Clone(l.ns)) / 1e6
}

// windows splits the phase into consecutive full windows (one, the whole
// phase, when it is shorter than a window) and returns each window's
// latencies and successful ops, by completion time.
func (l *latencies) windows(phase, window time.Duration) (lat [][]float64, ops []float64, length time.Duration) {
	n := int(phase / window)
	if n == 0 {
		n, window = 1, phase
	}
	lat, ops = make([][]float64, n), make([]float64, n)
	for i, at := range l.at {
		if w := int(at / float64(window)); w < n {
			lat[w] = append(lat[w], l.ns[i])
			ops[w] += l.ops[i]
		}
	}
	return lat, ops, window
}

// windowedRate is the median, over the seconds of the phase, of the
// successful ops completed in each, per second: the phase's throughput with
// a stall in one second left out, as windowedTailMs leaves it out of the tail.
func (l *latencies) windowedRate(phase time.Duration) float64 {
	_, ops, length := l.windows(phase, time.Second)
	return median(ops) / length.Seconds()
}

// secondsP50 returns the lowest, the median and the highest of the medians of
// each second of the phase, in ms: how steady the host was during the run.
func (l *latencies) secondsP50(phase time.Duration) (lo, mid, hi float64) {
	lat, _, _ := l.windows(phase, time.Second)
	var meds []float64
	for _, b := range lat {
		if len(b) > 0 {
			meds = append(meds, median(b)/1e6)
		}
	}
	if len(meds) == 0 {
		return 0, 0, 0
	}
	mid = median(meds) // sorts meds
	return meds[0], mid, meds[len(meds)-1]
}

// windowedTailMs is the median, over consecutive full windows of the phase,
// of each window's p99: a tail one scheduler hiccup cannot move. It refuses a
// window with fewer than minSamples, whose p99 would have too few samples
// beyond it.
func (l *latencies) windowedTailMs(phase, window time.Duration, minSamples int) (float64, int, error) {
	lat, _, length := l.windows(phase, window)
	tails := make([]float64, len(lat))
	for w, b := range lat {
		if len(b) < minSamples {
			return 0, len(lat), fmt.Errorf("tail window %d of %d (%v each) holds %d samples, fewer than %d: "+
				"this host is too slow for the tail to mean anything; lengthen -seconds",
				w+1, len(lat), length, len(b), minSamples)
		}
		tails[w] = quantile(b, 0.99)
	}
	return median(tails) / 1e6, len(lat), nil
}
