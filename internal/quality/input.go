package quality

// InputBounds is what Summarize reads of the serving predictor: the
// training-time min–max bounds per indicator, the target indicator, and
// how much history the model reads.
type InputBounds struct {
	Min, Max           []float64
	Target, MinHistory int
}

// InputSummary is one request's input as the input detectors see it: the
// fraction of values outside the training bounds, where min–max scaling
// extrapolates (HasOOR false without bounds), and the mean of the target's
// trailing window, NaNs skipped.
type InputSummary struct {
	OOR, Mean       float64
	HasOOR, HasMean bool
}

// Summarize is one pass over series ([indicator][time]); it runs no
// inference.
func (b *InputBounds) Summarize(series [][]float64) (sum InputSummary) {
	total, out := 0, 0
	for i, s := range series[:min(len(series), len(b.Min))] {
		for _, v := range s {
			if total++; v < b.Min[i] || v > b.Max[i] {
				out++
			}
		}
	}
	if total > 0 {
		sum.OOR, sum.HasOOR = float64(out)/float64(total), true
	}
	if b.Target >= len(series) {
		return sum
	}
	tgt := series[b.Target]
	if b.MinHistory > 0 && len(tgt) > b.MinHistory {
		tgt = tgt[len(tgt)-b.MinHistory:]
	}
	s, n := 0.0, 0
	for _, v := range tgt {
		if v == v { // skip NaN
			s, n = s+v, n+1
		}
	}
	if n > 0 {
		sum.Mean, sum.HasMean = s/float64(n), true
	}
	return sum
}
