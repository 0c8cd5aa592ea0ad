// Package gbt implements gradient-boosted regression trees in the style of
// XGBoost (Chen & Guestrin 2016), the strongest classical baseline in the
// paper's Table II. It uses the defining pieces of that system: a
// second-order (gradient/hessian) approximation of the loss, exact greedy
// split search with the regularized gain
//
//	gain = ½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ,
//
// leaf weights −G/(H+λ), shrinkage, and row/column subsampling.
package gbt

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// Config holds the boosting hyperparameters.
type Config struct {
	Rounds         int     // number of trees (default 100)
	MaxDepth       int     // maximum tree depth (default 4)
	LearningRate   float64 // shrinkage η (default 0.1)
	Lambda         float64 // L2 regularization λ on leaf weights (default 1)
	Gamma          float64 // minimum split gain γ (default 0)
	MinChildWeight float64 // minimum hessian sum per child (default 1)
	Subsample      float64 // row subsample ratio per tree (default 1)
	ColSample      float64 // column subsample ratio per tree (default 1)
	Seed           uint64  // RNG seed for subsampling
}

func (c *Config) fillDefaults() {
	if c.Rounds == 0 {
		c.Rounds = 100
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.MinChildWeight == 0 {
		c.MinChildWeight = 1
	}
	if c.Subsample == 0 {
		c.Subsample = 1
	}
	if c.ColSample == 0 {
		c.ColSample = 1
	}
}

type node struct {
	leaf      bool
	value     float64 // leaf weight
	feature   int
	threshold float64
	gain      float64 // split gain (for feature importance)
	left      *node
	right     *node
}

func (n *node) predict(x []float64) float64 {
	for !n.leaf {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Model is a fitted gradient-boosted ensemble.
type Model struct {
	Base  float64 // initial prediction (training mean)
	Eta   float64
	trees []*node
}

// Fit trains the ensemble for squared-error regression. X is row-major
// [n][features]; y has length n.
func Fit(X [][]float64, y []float64, cfg Config) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("gbt: bad input sizes %d rows, %d targets", len(X), len(y))
	}
	cfg.fillDefaults()
	n := len(X)
	nf := len(X[0])
	rng := tensor.NewRNG(cfg.Seed)

	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)

	m := &Model{Base: base, Eta: cfg.LearningRate}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	for round := 0; round < cfg.Rounds; round++ {
		// Squared loss: g = pred − y, h = 1.
		for i := range grad {
			grad[i] = pred[i] - y[i]
			hess[i] = 1
		}
		rows := sampleRows(rng, n, cfg.Subsample)
		cols := sampleCols(rng, nf, cfg.ColSample)
		tree := buildNode(X, grad, hess, rows, cols, cfg, 0)
		m.trees = append(m.trees, tree)
		for i := range pred {
			pred[i] += cfg.LearningRate * tree.predict(X[i])
		}
	}
	return m, nil
}

func sampleRows(rng *tensor.RNG, n int, ratio float64) []int {
	if ratio >= 1 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	k := int(float64(n) * ratio)
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(n)
	rows := perm[:k]
	sort.Ints(rows)
	return rows
}

func sampleCols(rng *tensor.RNG, nf int, ratio float64) []int {
	if ratio >= 1 {
		cols := make([]int, nf)
		for i := range cols {
			cols[i] = i
		}
		return cols
	}
	k := int(float64(nf) * ratio)
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(nf)
	cols := perm[:k]
	sort.Ints(cols)
	return cols
}

// buildNode grows one tree node greedily.
func buildNode(X [][]float64, grad, hess []float64, rows, cols []int, cfg Config, depth int) *node {
	var G, H float64
	for _, i := range rows {
		G += grad[i]
		H += hess[i]
	}
	leafValue := -G / (H + cfg.Lambda)

	if depth >= cfg.MaxDepth || len(rows) < 2 {
		return &node{leaf: true, value: leafValue}
	}

	parentScore := G * G / (H + cfg.Lambda)
	bestGain := 0.0
	bestFeature := -1
	bestThreshold := 0.0
	var bestLeft, bestRight []int

	order := make([]int, len(rows))
	for _, f := range cols {
		copy(order, rows)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		var gl, hl float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			gl += grad[i]
			hl += hess[i]
			// Can't split between equal feature values.
			if X[order[k]][f] == X[order[k+1]][f] {
				continue
			}
			gr := G - gl
			hr := H - hl
			if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
				continue
			}
			gain := 0.5*(gl*gl/(hl+cfg.Lambda)+gr*gr/(hr+cfg.Lambda)-parentScore) - cfg.Gamma
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (X[order[k]][f] + X[order[k+1]][f]) / 2
				bestLeft = append(bestLeft[:0], order[:k+1]...)
				bestRight = append(bestRight[:0], order[k+1:]...)
			}
		}
	}

	if bestFeature < 0 {
		return &node{leaf: true, value: leafValue}
	}
	left := append([]int(nil), bestLeft...)
	right := append([]int(nil), bestRight...)
	return &node{
		feature:   bestFeature,
		threshold: bestThreshold,
		gain:      bestGain,
		left:      buildNode(X, grad, hess, left, cols, cfg, depth+1),
		right:     buildNode(X, grad, hess, right, cols, cfg, depth+1),
	}
}

// Predict returns the model output for one feature vector.
func (m *Model) Predict(x []float64) float64 {
	out := m.Base
	for _, t := range m.trees {
		out += m.Eta * t.predict(x)
	}
	return out
}

// PredictBatch returns predictions for every row of X.
func (m *Model) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// StagedLoss returns the training MSE after each boosting round — the
// "loss curve" equivalent used when comparing convergence with the deep
// models (Figs. 9–10 treat XGBoost rounds as epochs).
func (m *Model) StagedLoss(X [][]float64, y []float64) []float64 {
	pred := make([]float64, len(X))
	for i := range pred {
		pred[i] = m.Base
	}
	out := make([]float64, len(m.trees))
	for ti, t := range m.trees {
		s := 0.0
		for i, x := range X {
			pred[i] += m.Eta * t.predict(x)
			d := pred[i] - y[i]
			s += d * d
		}
		out[ti] = s / float64(len(X))
	}
	return out
}
