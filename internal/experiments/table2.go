package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arima"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Cell is one Table II entry: MSE and MAE on the normalized scale
// (the paper reports both ×10⁻²).
type Cell struct {
	MSE, MAE float64
}

// TableII holds the full accuracy comparison:
// Results[scenario][model][kind] → Cell.
type TableII struct {
	Options Options
	Results map[core.Scenario]map[ModelName]map[trace.EntityKind]Cell
}

// tableIIModels lists which models run in each scenario, mirroring the
// paper's rows (ARIMA appears only in the univariate block).
func tableIIModels(sc core.Scenario) []ModelName {
	if sc == core.Uni {
		return []ModelName{ModelARIMA, ModelLSTM, ModelCNNLSTM, ModelXGBoost, ModelRPTCN}
	}
	return []ModelName{ModelLSTM, ModelXGBoost, ModelCNNLSTM, ModelRPTCN}
}

// TableIIModels exposes the per-scenario model list (for the benchmark
// harness).
func TableIIModels(sc core.Scenario) []ModelName { return tableIIModels(sc) }

// RunTableIICell trains and evaluates a single Table II cell.
func RunTableIICell(o Options, sc core.Scenario, model ModelName, kind trace.EntityKind) (Cell, error) {
	o = o.withDefaults()
	entity := Generate1(kind, o)
	p, err := prepareScenario(entity, sc, o)
	if err != nil {
		return Cell{}, err
	}
	res := runModel(model, p, o, o.Seed)
	return Cell{MSE: res.Report.MSE, MAE: res.Report.MAE}, nil
}

// runARIMA fits ARIMA(2,0,1) on the training+validation prefix of the
// normalized target series and rolls one-step forecasts across the test
// targets, matching the deep models' evaluation protocol.
func runARIMA(p *preparedData, o Options) runResult {
	firstTarget := p.tr.Len() + p.va.Len() + o.Window
	history := p.targetSeries[:firstTarget]
	actuals := p.targetSeries[firstTarget : firstTarget+len(p.testTruth)]
	m, err := arima.Fit(history, arima.Config{P: 2, D: 0, Q: 1})
	if err != nil {
		panic(fmt.Sprintf("experiments: arima fit: %v", err))
	}
	preds := m.RollingForecast(actuals)
	return runResult{Report: metrics.Evaluate(p.testTruth, preds), Preds: preds}
}

// runModel dispatches one (model, prepared data) evaluation.
func runModel(name ModelName, p *preparedData, o Options, seed uint64) runResult {
	switch name {
	case ModelARIMA:
		return runARIMA(p, o)
	case ModelXGBoost:
		return runXGBoost(p, o, seed)
	default:
		return runDeep(name, p, o, seed)
	}
}

// RunTableII regenerates the paper's Table II: every model × scenario ×
// entity kind, reporting test MSE/MAE at the normalized scale.
func RunTableII(o Options) (*TableII, error) {
	o = o.withDefaults()
	t := &TableII{
		Options: o,
		Results: map[core.Scenario]map[ModelName]map[trace.EntityKind]Cell{},
	}
	for _, kind := range []trace.EntityKind{trace.Container, trace.Machine} {
		entity := Generate1(kind, o)
		for _, sc := range []core.Scenario{core.Uni, core.Mul, core.MulExp} {
			p, err := prepareScenario(entity, sc, o)
			if err != nil {
				return nil, fmt.Errorf("preparing %s/%s: %w", kind, sc, err)
			}
			if t.Results[sc] == nil {
				t.Results[sc] = map[ModelName]map[trace.EntityKind]Cell{}
			}
			for mi, name := range tableIIModels(sc) {
				res := runModel(name, p, o, o.Seed+uint64(mi)*7919)
				if t.Results[sc][name] == nil {
					t.Results[sc][name] = map[trace.EntityKind]Cell{}
				}
				t.Results[sc][name][kind] = Cell{MSE: res.Report.MSE, MAE: res.Report.MAE}
			}
		}
	}
	return t, nil
}

// Generate1 produces the representative entity of a kind used across the
// prediction experiments (deterministic in Options.Seed).
func Generate1(kind trace.EntityKind, o Options) *trace.EntitySeries {
	o = o.withDefaults()
	seed := o.Seed*2 + 17
	if kind == trace.Machine {
		seed = o.Seed*2 + 18
	}
	return trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: kind, Samples: o.Samples, Seed: seed,
	})[0]
}

// Format renders the table in the paper's layout (values ×10⁻²).
func (t *TableII) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: accuracy on the synthetic Alibaba-like trace (values ×10⁻²)\n")
	fmt.Fprintf(&b, "%-8s %-9s | %10s %10s | %10s %10s\n", "Scenario", "Model", "Cont.MSE", "Cont.MAE", "Mach.MSE", "Mach.MAE")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	for _, sc := range []core.Scenario{core.Uni, core.Mul, core.MulExp} {
		for _, name := range tableIIModels(sc) {
			cells := t.Results[sc][name]
			c := cells[trace.Container]
			m := cells[trace.Machine]
			fmt.Fprintf(&b, "%-8s %-9s | %10.4f %10.4f | %10.4f %10.4f\n",
				sc, name, c.MSE*100, c.MAE*100, m.MSE*100, m.MAE*100)
		}
	}
	return b.String()
}

// CSV renders machine-readable rows: scenario,model,kind,mse,mae.
func (t *TableII) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,model,kind,mse,mae\n")
	for _, sc := range []core.Scenario{core.Uni, core.Mul, core.MulExp} {
		for _, name := range tableIIModels(sc) {
			kinds := make([]trace.EntityKind, 0, 2)
			for k := range t.Results[sc][name] {
				kinds = append(kinds, k)
			}
			sort.Slice(kinds, func(a, b int) bool { return kinds[a] < kinds[b] })
			for _, k := range kinds {
				c := t.Results[sc][name][k]
				fmt.Fprintf(&b, "%s,%s,%s,%.6f,%.6f\n", sc, name, k, c.MSE, c.MAE)
			}
		}
	}
	return b.String()
}
