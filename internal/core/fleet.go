package core

import (
	"errors"
	"fmt"

	"repro/internal/dataprep"
	"repro/internal/tensor"
	"repro/internal/train"
)

// FitFleet trains ONE model on windows pooled from several entities'
// series (each entity is [indicator][time] with the same indicator
// layout). Screening and normalization are fitted on the concatenation of
// all entities, so the resulting predictor serves any workload with
// similar dynamics — the "one model per cluster" deployment a resource
// manager actually wants, rather than one model per container.
//
// Windows never span entity boundaries. The chronological 6:2:2 split is
// applied per entity and the per-entity splits are concatenated, so test
// windows still lie in each entity's future. Training and publishing are
// Fit's: the model serves as generation 1.
func (p *Predictor) FitFleet(entities [][][]float64, target int) error {
	if len(entities) == 0 {
		return errors.New("core: no entities")
	}
	p.target = target

	// Fit normalization and screening on the pooled cleaned series.
	nIndicators := len(entities[0])
	if target < 0 || target >= nIndicators {
		return fmt.Errorf("core: target index %d out of range (have %d indicators)", target, nIndicators)
	}
	pooled := make([][]float64, nIndicators)
	cleanedPer := make([][][]float64, len(entities))
	for ei, series := range entities {
		if len(series) != nIndicators {
			return fmt.Errorf("core: entity %d has %d indicators, want %d", ei, len(series), nIndicators)
		}
		cleaned := dataprep.Clean(series)
		if len(cleaned) == 0 || len(cleaned[0]) == 0 {
			return fmt.Errorf("core: entity %d empty after cleaning", ei)
		}
		cleanedPer[ei] = cleaned
		for i := range pooled {
			pooled[i] = append(pooled[i], cleaned[i]...)
		}
	}
	p.norm = dataprep.FitNormalizer(pooled)
	normPooled := p.norm.Transform(pooled)
	switch p.Cfg.Scenario {
	case Uni:
		p.selected = []int{target}
	default:
		p.selected = dataprep.ScreenTopHalf(normPooled, target)
	}

	// Build per-entity datasets with the shared normalizer/screening; the
	// first entity fixes the expansion layout.
	var trs, vas, tes []train.Dataset
	for ei, cleaned := range cleanedPer {
		normed := p.norm.Transform(cleaned)
		sel := dataprep.Select(normed, p.selected)
		if ei == 0 {
			if p.Cfg.Scenario == MulExp {
				p.fitExpansion(sel)
			}
			p.freezePlan()
		}
		if p.Cfg.Scenario == MulExp {
			sel = p.expand(sel)
		}
		if ei == len(cleanedPer)-1 {
			// Retain the last entity's prepared channels for Forecast().
			p.prepared = sel
		}
		ds, err := dataprep.BuildSupervised(sel, dataprep.WindowConfig{
			Window: p.Cfg.Window, Horizon: p.Cfg.Horizon, Target: 0,
		})
		if err != nil {
			return fmt.Errorf("core: entity %d: %w", ei, err)
		}
		tr, va, te, err := train.Split(ds, p.Cfg.TrainFrac, p.Cfg.ValidFrac)
		if err != nil {
			return fmt.Errorf("core: entity %d: %w", ei, err)
		}
		trs = append(trs, tr)
		vas = append(vas, va)
		tes = append(tes, te)
	}
	p.fitModel(len(p.prepared), concatDatasets(trs), concatDatasets(vas), concatDatasets(tes), nil)
	return nil
}

// concatDatasets stacks datasets along the sample dimension. All datasets
// must share per-sample shapes.
func concatDatasets(ds []train.Dataset) train.Dataset {
	if len(ds) == 1 {
		return ds[0]
	}
	total := 0
	for _, d := range ds {
		total += d.Len()
	}
	xShape := ds[0].X.Shape()
	yShape := ds[0].Y.Shape()
	xShape[0] = total
	yShape[0] = total
	x := tensor.New(xShape...)
	y := tensor.New(yShape...)
	xo, yo := 0, 0
	for _, d := range ds {
		copy(x.Data[xo:], d.X.Data)
		copy(y.Data[yo:], d.Y.Data)
		xo += d.X.Size()
		yo += d.Y.Size()
	}
	return train.Dataset{X: x, Y: y}
}
