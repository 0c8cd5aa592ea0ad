package repro

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/server"
	"repro/internal/trace"
)

// TestEndToEndPipeline drives the full production flow through public
// APIs: generate a trace → CSV round trip → fit RPTCN → evaluate → save →
// load → serve over HTTP → use forecasts in an allocation policy.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline is expensive")
	}

	// 1. Trace generation and CSV round trip.
	entity := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 1000, Seed: 99, MissingRate: 0.01,
	})[0]
	var csvBuf bytes.Buffer
	if err := trace.WriteCSV(&csvBuf, []*trace.EntitySeries{entity}); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := trace.ReadCSVStats(&csvBuf, trace.Container)
	if err != nil {
		t.Fatal(err)
	}
	entity = loaded[0]

	// 2. Fit the Algorithm 1 pipeline.
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 24, Horizon: 3, Epochs: 8, Seed: 7,
		Model: core.Config{
			Channels: []int{12, 12}, KernelSize: 3, Dilations: []int{1, 2},
			Dropout: 0.1, WeightNorm: true, FCWidth: 24,
		},
	})
	if err := p.Fit(entity.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	rep, err := p.TestMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.MSE) || rep.MSE > 0.1 {
		t.Fatalf("end-to-end MSE = %g (normalized)", rep.MSE)
	}

	// 3. Save / load, then serve the LOADED predictor over HTTP.
	var modelBuf bytes.Buffer
	if err := p.Save(&modelBuf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.LoadPredictor(&modelBuf)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(restored))
	defer ts.Close()

	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		s := entity.Metrics[i]
		tail[i] = s[len(s)-80:]
	}
	body, _ := json.Marshal(server.ForecastRequest{Indicators: tail})
	resp, err := http.Post(ts.URL+"/v1/forecast", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status = %d", resp.StatusCode)
	}
	var out server.ForecastResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Forecast) != 3 {
		t.Fatalf("forecast = %+v", out)
	}

	// 4. Allocation: RPTCN forecasts must waste less than the static-peak
	//    policy while keeping violations bounded.
	truthN, predsN, err := p.TestSeries()
	if err != nil {
		t.Fatal(err)
	}
	demand := p.DenormalizeTarget(truthN)
	forecasts := p.DenormalizeTarget(predsN)
	peak := 0.0
	for _, v := range entity.Series(trace.CPUUtilPercent) {
		if v > peak {
			peak = v
		}
	}
	rows, err := alloc.Compare(demand, []alloc.NamedReservation{
		{Name: "static", Reservation: alloc.Static(peak, len(demand))},
		{Name: "rptcn", Reservation: alloc.FromForecasts(forecasts, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	static, rptcn := rows[0], rows[1]
	if rptcn.WastePerStep >= static.WastePerStep {
		t.Fatalf("rptcn waste %g not below static %g", rptcn.WastePerStep, static.WastePerStep)
	}
	if rptcn.SLOAttainment < 0.9 {
		t.Fatalf("rptcn SLO attainment = %g", rptcn.SLOAttainment)
	}
}

// TestPredictorBeatsNaiveOnDynamicWorkload pits the full pipeline against
// the persistence baseline on the same held-out windows.
func TestPredictorBeatsNaiveOnDynamicWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	entity := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 1500, Seed: 123,
		MutationRate: 0.01, BurstRate: 0.02,
	})[0]
	p := core.NewPredictor(core.PredictorConfig{
		Scenario: core.MulExp, Window: 24, Horizon: 1, Epochs: 12, Seed: 3,
		LearningRate: 2e-3,
		Model: core.Config{
			Channels: []int{16, 16}, KernelSize: 3, Dilations: []int{1, 2},
			Dropout: 0.1, WeightNorm: true, FCWidth: 24,
		},
	})
	if err := p.Fit(entity.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	truth, preds, err := p.TestSeries()
	if err != nil {
		t.Fatal(err)
	}
	var seModel, seNaive float64
	// Persistence on the same normalized truth series.
	nf := &naive.Persistence{}
	if err := nf.Fit(truth[:1]); err != nil {
		t.Fatal(err)
	}
	naivePreds := naive.RollingForecast(nf, truth[1:])
	for i := 1; i < len(truth); i++ {
		dm := truth[i] - preds[i]
		dn := truth[i] - naivePreds[i-1]
		seModel += dm * dm
		seNaive += dn * dn
	}
	// RPTCN should at least be competitive with persistence (within 10%)
	// on this highly dynamic workload; typically it is better.
	if seModel > seNaive*1.1 {
		t.Fatalf("RPTCN SSE %g much worse than persistence %g", seModel, seNaive)
	}
}

// TestCLIToolsBuild ensures every command compiles to a runnable binary.
func TestCLIToolsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("build test")
	}
	for _, pkg := range []string{"./cmd/tracegen", "./cmd/rptcn", "./cmd/rptcnd", "./cmd/experiments"} {
		cmd := exec.Command("go", "build", "-o", "/dev/null", pkg)
		cmd.Dir = "."
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
}

// TestTracegenCLIProducesValidCSV runs the tracegen binary end to end.
func TestTracegenCLIProducesValidCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test")
	}
	cmd := exec.Command("go", "run", "./cmd/tracegen", "-kind", "machine", "-entities", "2", "-samples", "20")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	entities, _, err := trace.ReadCSVStats(bytes.NewReader(out), trace.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if len(entities) != 2 || entities[0].Len() != 20 {
		t.Fatalf("tracegen output: %d entities", len(entities))
	}
	if !strings.HasPrefix(entities[0].ID, "m_") {
		t.Fatalf("entity ID = %q", entities[0].ID)
	}
}
