package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/dataprep"
	"repro/internal/fsx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// predictorDump is the on-disk form of a fitted predictor: everything
// needed to rebuild the serving path (config, screening, normalizer,
// weighted factors, prepared training tail for Forecast, and the model
// weights).
type predictorDump struct {
	Format          int             `json:"format"`
	Cfg             PredictorConfig `json:"config"`
	ModelCfg        Config          `json:"model_config"`
	Target          int             `json:"target"`
	Selected        []int           `json:"selected"`
	NormMin         []float64       `json:"norm_min"`
	NormMax         []float64       `json:"norm_max"`
	WeightedFactors []int           `json:"weighted_factors,omitempty"`
	Weights         json.RawMessage `json:"weights"`
}

// predictorFormat is bumped on incompatible changes.
const predictorFormat = 1

// Save serializes a fitted predictor to w as JSON. Load restores it; the
// restored predictor serves ForecastFrom but carries no training history
// or held-out test data.
func (p *Predictor) Save(w io.Writer) error {
	m := p.Model()
	if m == nil {
		return fmt.Errorf("core: cannot save an unfitted predictor")
	}
	var weights bytes.Buffer
	if err := nn.SaveParams(&weights, m); err != nil {
		return err
	}
	dump := predictorDump{
		Format:          predictorFormat,
		Cfg:             p.Cfg,
		ModelCfg:        m.Cfg,
		Target:          p.target,
		Selected:        p.selected,
		NormMin:         p.norm.Min,
		NormMax:         p.norm.Max,
		WeightedFactors: p.weightedFactors,
		Weights:         json.RawMessage(weights.Bytes()),
	}
	return json.NewEncoder(w).Encode(dump)
}

// SaveFile writes the predictor to path crash-safely: the snapshot is
// staged in a temp file, fsynced, and renamed into place, so a process
// killed mid-save never leaves a truncated model where a good one was.
func (p *Predictor) SaveFile(path string) error {
	return fsx.WriteFileAtomic(path, p.Save)
}

// LoadPredictorFile restores a predictor saved with SaveFile (or any
// file containing a Save snapshot).
func LoadPredictorFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadPredictor(f)
}

// LoadPredictor restores a predictor saved with Save. The result is ready
// for ForecastFrom/DenormalizeTarget; TestMetrics, History and Forecast
// (which depend on retained training data) return errors.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var dump predictorDump
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return nil, fmt.Errorf("core: decoding predictor: %w", err)
	}
	dump.Cfg.fillDefaults()
	dump.ModelCfg.fillDefaults()
	if err := dump.validate(); err != nil {
		return nil, err
	}
	p := NewPredictor(dump.Cfg)
	p.target = dump.Target
	p.selected = dump.Selected
	p.weightedFactors = dump.WeightedFactors
	p.norm = &dataprep.Normalizer{Min: dump.NormMin, Max: dump.NormMax}
	p.freezePlan()
	m := NewModel(tensor.NewRNG(0), dump.ModelCfg)
	if err := nn.LoadParams(bytes.NewReader(dump.Weights), m); err != nil {
		return nil, err
	}
	p.publish(&snapshot{model: m, gen: 1})
	return p, nil
}

// validate reports why d, defaults filled, is not a snapshot to build a
// predictor from: every value the serving path or a constructor would
// index, allocate or panic by is checked here, where it is still a
// file's word.
func (d *predictorDump) validate() error {
	if d.Format != predictorFormat {
		return fmt.Errorf("core: unsupported predictor format %d (want %d)", d.Format, predictorFormat)
	}
	if len(d.NormMin) == 0 || len(d.NormMin) != len(d.NormMax) {
		return fmt.Errorf("core: corrupt normalizer (%d/%d extrema)", len(d.NormMin), len(d.NormMax))
	}
	if len(d.Selected) == 0 {
		return fmt.Errorf("core: no selected indicators")
	}
	for _, s := range d.Selected {
		if s < 0 || s >= len(d.NormMin) {
			return fmt.Errorf("core: selected indicator %d out of range", s)
		}
	}
	if d.Target < 0 || d.Target >= len(d.NormMin) {
		return fmt.Errorf("core: target indicator %d out of range", d.Target)
	}
	if d.Cfg.Window < 1 || d.Cfg.ExpandFactor < 1 {
		return fmt.Errorf("core: Window = %d, ExpandFactor = %d", d.Cfg.Window, d.Cfg.ExpandFactor)
	}
	if d.Cfg.Horizon != d.ModelCfg.Horizon {
		return fmt.Errorf("core: predictor horizon %d, model horizon %d", d.Cfg.Horizon, d.ModelCfg.Horizon)
	}
	// The weighted expansion replays the factors fixed at fit time; a Save
	// always writes them for that mode.
	if d.Cfg.Scenario == MulExp && d.Cfg.Expansion == ExpandWeighted && d.WeightedFactors == nil {
		return fmt.Errorf("core: weighted Mul-Exp snapshot without weighted_factors")
	}
	if d.WeightedFactors != nil && len(d.WeightedFactors) != len(d.Selected) {
		return fmt.Errorf("core: %d weighted factors for %d indicators", len(d.WeightedFactors), len(d.Selected))
	}
	for _, f := range d.WeightedFactors {
		if f < 1 || f > d.Cfg.ExpandFactor {
			return fmt.Errorf("core: weighted factor %d out of [1,%d]", f, d.Cfg.ExpandFactor)
		}
	}
	if err := d.ModelCfg.validate(); err != nil {
		return err
	}
	// The serving plan (freezePlan) lays out one channel per window row
	// the pipeline emits; it is built only for a model that takes them.
	if c := d.servedChannels(); c != d.ModelCfg.InChannels {
		return fmt.Errorf("core: the pipeline emits %d channels, the model takes %d", c, d.ModelCfg.InChannels)
	}
	// The architecture is built only if the file is long enough to hold its
	// weights, at a digit and a separator each: nothing allocates by a size
	// the file does not back. LoadParams refuses any other mismatch.
	if n := d.ModelCfg.paramCount(); 2*n > float64(len(d.Weights)) {
		return fmt.Errorf("core: model_config implies %g weights, file carries %d bytes of them", n, len(d.Weights))
	}
	return nil
}

// servedChannels is how many channels the snapshot's pipeline emits: one
// per screened indicator, times the expansion's copies under Mul-Exp. A
// factor beyond the model's channel count answers -1 before it can
// multiply.
func (d *predictorDump) servedChannels() int {
	sel := len(d.Selected)
	if d.Cfg.Scenario != MulExp {
		return sel
	}
	per := d.Cfg.ExpandFactor
	switch d.Cfg.Expansion {
	case ExpandWeighted:
		n := 0
		for _, f := range d.WeightedFactors {
			n += f
		}
		return n
	case ExpandLagsDiff:
		if per >= d.ModelCfg.InChannels {
			return -1
		}
		per++
	}
	if per > d.ModelCfg.InChannels {
		return -1
	}
	return sel * per
}
