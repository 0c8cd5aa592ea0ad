package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func TestFastOptionsFillDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Samples == 0 || o.Window == 0 || o.Epochs == 0 || o.Horizon != 1 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	f := Fast(1)
	if f.Samples >= o.Samples {
		t.Fatal("Fast should reduce sample count")
	}
}

func TestRunFig1SeriesPresent(t *testing.T) {
	r := RunFig1(Fast(1))
	if len(r.CPU) == 0 || len(r.CPU) != len(r.Mem) || len(r.CPU) != len(r.Disk) {
		t.Fatalf("Fig1 series lengths: %d/%d/%d", len(r.CPU), len(r.Mem), len(r.Disk))
	}
	if !strings.Contains(r.Format(), "Fig. 1") {
		t.Fatal("Format missing title")
	}
}

func TestRunFig2BoxesOrdered(t *testing.T) {
	r := RunFig2(Fast(2))
	if len(r.Boxes) < 4 {
		t.Fatalf("Fig2 windows = %d, want several", len(r.Boxes))
	}
	for _, bx := range r.Boxes {
		if !(bx.Q1 <= bx.Median && bx.Median <= bx.Q3) {
			t.Fatalf("quartiles out of order: %+v", bx)
		}
		if bx.Mean < 0 || bx.Mean > 1 {
			t.Fatalf("normalized mean out of [0,1]: %g", bx.Mean)
		}
	}
	// Fig. 2 claim: upper quartile mostly below 0.6.
	below := 0
	for _, bx := range r.Boxes {
		if bx.Q3 < 0.6 {
			below++
		}
	}
	if below*2 < len(r.Boxes) {
		t.Fatalf("only %d/%d windows with Q3 < 0.6", below, len(r.Boxes))
	}
}

func TestRunFig3MajorityUnderHalf(t *testing.T) {
	r := RunFig3(Fast(3))
	if len(r.FractionUnder) == 0 {
		t.Fatal("no windows")
	}
	if r.OverallAverage < 0.7 {
		t.Fatalf("average fraction under 50%% CPU = %g, want >= 0.7 (Fig. 3 shape)", r.OverallAverage)
	}
	if !strings.Contains(r.Format(), "Fig. 3") {
		t.Fatal("Format missing title")
	}
}

func TestRunFig7TopFourMatchesPaper(t *testing.T) {
	o := Fast(4)
	o.Samples = 2000 // enough for stable correlations
	r := RunFig7(o)
	if len(r.Matrix) != trace.NumIndicators {
		t.Fatalf("matrix size %d", len(r.Matrix))
	}
	// Diagonal must be 1.
	for i := range r.Matrix {
		if math.Abs(r.Matrix[i][i]-1) > 1e-9 {
			t.Fatalf("diagonal[%d] = %g", i, r.Matrix[i][i])
		}
	}
	// Paper's finding: top four are cpu, mpki, cpi, mem_gps.
	want := map[string]bool{"cpu_util_percent": true, "mpki": true, "cpi": true, "mem_gps": true}
	if len(r.TopFour) != 4 {
		t.Fatalf("top four = %v", r.TopFour)
	}
	for _, n := range r.TopFour {
		if !want[n] {
			t.Fatalf("top four %v does not match the paper's {cpu, mpki, cpi, mem_gps}", r.TopFour)
		}
	}
}

func TestPrepareScenarioChannelCounts(t *testing.T) {
	o := Fast(5).withDefaults()
	e := Generate1(trace.Container, o)
	uni, err := prepareScenario(e, core.Uni, o)
	if err != nil {
		t.Fatal(err)
	}
	if uni.channels != 1 {
		t.Fatalf("Uni channels = %d", uni.channels)
	}
	mul, err := prepareScenario(e, core.Mul, o)
	if err != nil {
		t.Fatal(err)
	}
	if mul.channels != trace.NumIndicators/2 {
		t.Fatalf("Mul channels = %d", mul.channels)
	}
	exp, err := prepareScenario(e, core.MulExp, o)
	if err != nil {
		t.Fatal(err)
	}
	if exp.channels != mul.channels*o.ExpandFactor {
		t.Fatalf("Mul-Exp channels = %d, want %d", exp.channels, mul.channels*o.ExpandFactor)
	}
	// Split proportions: train ≈ 3× test.
	if uni.tr.Len() < uni.te.Len()*2 {
		t.Fatal("train/test proportions wrong")
	}
}

func TestRunModelAllNamesProduceFiniteMetrics(t *testing.T) {
	o := Fast(6).withDefaults()
	e := Generate1(trace.Container, o)
	p, err := prepareScenario(e, core.Uni, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []ModelName{ModelARIMA, ModelLSTM, ModelCNNLSTM, ModelXGBoost, ModelRPTCN} {
		r := runModel(name, p, o, 7)
		if math.IsNaN(r.Report.MSE) || math.IsInf(r.Report.MSE, 0) || r.Report.MSE < 0 {
			t.Fatalf("%s MSE = %g", name, r.Report.MSE)
		}
		if len(r.Preds) != len(p.testTruth) {
			t.Fatalf("%s predictions = %d, want %d", name, len(r.Preds), len(p.testTruth))
		}
	}
}

func TestRunTableIIStructureAndSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("table II is expensive")
	}
	res, err := RunTableII(Fast(7))
	if err != nil {
		t.Fatal(err)
	}
	// Every expected cell must exist with finite values.
	for _, sc := range []core.Scenario{core.Uni, core.Mul, core.MulExp} {
		for _, name := range tableIIModels(sc) {
			for _, kind := range []trace.EntityKind{trace.Container, trace.Machine} {
				c, ok := res.Results[sc][name][kind]
				if !ok {
					t.Fatalf("missing cell %s/%s/%s", sc, name, kind)
				}
				if math.IsNaN(c.MSE) || c.MSE <= 0 || c.MSE > 1 {
					t.Fatalf("cell %s/%s/%s MSE = %g", sc, name, kind, c.MSE)
				}
				if c.MAE*c.MAE > c.MSE+1e-9 {
					t.Fatalf("cell %s/%s/%s violates MAE² <= MSE", sc, name, kind)
				}
			}
		}
	}
	txt := res.Format()
	if !strings.Contains(txt, "RPTCN") || !strings.Contains(txt, "Mul-Exp") {
		t.Fatal("Format missing expected rows")
	}
	csv := res.CSV()
	if !strings.Contains(csv, "scenario,model,kind,mse,mae") {
		t.Fatal("CSV header missing")
	}
	if got := strings.Count(csv, "\n"); got != 1+2*(5+4+4) {
		t.Fatalf("CSV rows = %d", got)
	}
}

func TestRunFig8MutationTracked(t *testing.T) {
	if testing.Short() {
		t.Skip("fig 8 is expensive")
	}
	o := Fast(8)
	o.Samples = 1200
	o.Epochs = 8
	res, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepSize() < 0.15 {
		t.Fatalf("mutation step = %g normalized, want a visible step", res.StepSize())
	}
	for _, name := range []ModelName{ModelARIMA, ModelRPTCN} {
		if len(res.Preds[name]) != len(res.Truth) {
			t.Fatalf("%s preds length mismatch", name)
		}
	}
	if !strings.Contains(res.Format(), "post-step MAE") {
		t.Fatal("Format missing post-step column")
	}
}

func TestRunFig9And10CurvesPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence figs are expensive")
	}
	o := Fast(9)
	f9, err := RunFig9(o)
	if err != nil {
		t.Fatal(err)
	}
	f10, err := RunFig10(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range convergenceModels {
		if len(f9.Curves[name]) == 0 || len(f10.Curves[name]) == 0 {
			t.Fatalf("missing curve for %s", name)
		}
		for _, v := range f9.Curves[name] {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("%s train loss %g", name, v)
			}
		}
	}
	if !strings.Contains(f9.Format(), "Fig. 9") || !strings.Contains(f10.Format(), "Fig. 10") {
		t.Fatal("Format titles wrong")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are expensive")
	}
	o := Fast(10)
	for _, run := range []func(Options) (*AblationResult, error){
		RunAblationHeads, RunAblationExpansion, RunAblationDilations,
		RunAblationWeightNorm, RunAblationScreening, RunAblationFutureWork,
	} {
		res, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Order) < 2 {
			t.Fatalf("%s: too few variants", res.Title)
		}
		for _, k := range res.Order {
			r := res.Results[k]
			if math.IsNaN(r.MSE) || r.MSE <= 0 {
				t.Fatalf("%s / %s: MSE = %g", res.Title, k, r.MSE)
			}
		}
		if !strings.Contains(res.Format(), "variant") {
			t.Fatal("ablation format broken")
		}
	}
}

func TestGeneralizationTransfers(t *testing.T) {
	if testing.Short() {
		t.Skip("generalization is expensive")
	}
	res, err := RunGeneralization(Fast(12), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 2 containers + 2 machines.
	if len(res.PerEntity) != 4 {
		t.Fatalf("entities = %d", len(res.PerEntity))
	}
	for _, r := range res.PerEntity {
		if math.IsNaN(r.Report.MSE) || r.Report.MSE <= 0 {
			t.Fatalf("%s MSE = %g", r.EntityID, r.Report.MSE)
		}
	}
	// A consistent configuration should keep per-kind MSE within a modest
	// factor across entities (generous bound for the fast config).
	if res.ContainerSpread > 50 || res.MachineSpread > 50 {
		t.Fatalf("spreads = %g / %g — configuration does not generalize",
			res.ContainerSpread, res.MachineSpread)
	}
	if !strings.Contains(res.Format(), "Generalization") {
		t.Fatal("Format missing title")
	}
}

func TestNaiveComparisonRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("naive comparison trains RPTCN")
	}
	res, err := RunNaiveComparison(Fast(14), trace.Container)
	if err != nil {
		t.Fatal(err)
	}
	// 5 naive + ARIMA + RPTCN.
	if len(res.Order) != 7 {
		t.Fatalf("models = %v", res.Order)
	}
	for _, k := range res.Order {
		r := res.Results[k]
		if math.IsNaN(r.MSE) || r.MSE <= 0 {
			t.Fatalf("%s MSE = %g", k, r.MSE)
		}
	}
	// Persistence must be a serious baseline on 10s-resolution data: its
	// MSE should be within 10x of the best model's.
	best := math.Inf(1)
	for _, k := range res.Order {
		if r := res.Results[k].MSE; r < best {
			best = r
		}
	}
	if res.Results["persistence"].MSE > best*10 {
		t.Fatalf("persistence implausibly bad: %g vs best %g", res.Results["persistence"].MSE, best)
	}
	if !strings.Contains(res.Format(), "Reference forecasters") {
		t.Fatal("Format missing title")
	}
}

func TestTimingStudyRows(t *testing.T) {
	if testing.Short() {
		t.Skip("timing study is expensive")
	}
	res, err := RunTimingStudy(Fast(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Params <= 0 || r.ReceptiveField <= 0 || r.EpochTime <= 0 || r.InferLatency <= 0 {
			t.Fatalf("bad timing row: %+v", r)
		}
	}
	// Larger kernels widen the receptive field.
	if res.Rows[2].ReceptiveField <= res.Rows[0].ReceptiveField {
		t.Fatal("k=5 receptive field should exceed k=2")
	}
	if len(res.Profiles) != 2 {
		t.Fatalf("profiles = %d, want RPTCN + LSTM", len(res.Profiles))
	}
	for _, prof := range res.Profiles {
		if len(prof.Layers) == 0 {
			t.Fatalf("%s: empty layer breakdown", prof.Label)
		}
		for _, l := range prof.Layers {
			if l.FwdCalls == 0 || l.BwdCalls == 0 {
				t.Fatalf("%s: layer %q never trained: %+v", prof.Label, l.Name, l)
			}
		}
	}
	out := res.Format()
	for _, want := range []string{"Timing study", "Per-layer breakdown", "tcn[0]", "attention", "0:lstm"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestHorizonSweepDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("horizon sweep is expensive")
	}
	res, err := RunHorizonSweep(Fast(11), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 2 {
		t.Fatalf("variants = %v", res.Order)
	}
	for _, k := range res.Order {
		if math.IsNaN(res.Results[k].MSE) {
			t.Fatalf("%s NaN", k)
		}
	}
}
