package server

// inputBounds is what summarize reads of the serving predictor, fixed at
// New: the training-time min–max bounds per indicator, the target
// indicator, and how much history the model reads.
type inputBounds struct {
	min, max        []float64
	target, minHist int
}

// inputSummary is one request's input as the quality engine's input
// detectors see it: the fraction of values outside the training bounds,
// where min–max scaling clips (HasOOR false without bounds), and the mean
// of the target's trailing window, NaNs skipped.
type inputSummary struct {
	OOR, Mean       float64
	HasOOR, HasMean bool
}

// summarize is one pass over the submitted values; it runs no inference.
func (b *inputBounds) summarize(series [][]float64) (sum inputSummary) {
	total, out := 0, 0
	for i, s := range series[:min(len(series), len(b.min))] {
		for _, v := range s {
			if total++; v < b.min[i] || v > b.max[i] {
				out++
			}
		}
	}
	if total > 0 {
		sum.OOR, sum.HasOOR = float64(out)/float64(total), true
	}
	if b.target >= len(series) {
		return sum
	}
	tgt := series[b.target]
	if b.minHist > 0 && len(tgt) > b.minHist {
		tgt = tgt[len(tgt)-b.minHist:]
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
