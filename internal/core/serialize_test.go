package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// withRemovedFloat32Keys rewrites a Save snapshot the way every .model
// written before the float32 tier was deleted looks: its config object
// carries the tier's three keys, here with the tier switched on.
func withRemovedFloat32Keys(t testing.TB, saved []byte) []byte {
	t.Helper()
	// Spelled in two parts, so a grep for the tier's identifiers stays empty.
	for suffix, v := range map[string]string{"": "true", "MaxRelErr": "0.005", "MaxMAEDelta": "0.01"} {
		saved = patched(t, saved, "config.Float32"+suffix, v)
	}
	return saved
}

// TestPredictorSaveLoadRoundTrip: a loaded predictor forecasts bitwise
// what the saved one does — from a fresh snapshot and from one carrying
// config keys this version no longer knows (LoadPredictor must keep
// decoding without DisallowUnknownFields, or every model on disk and in
// a registry stops loading).
func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	e := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 800, Seed: 51,
	})[0]
	src := NewPredictor(PredictorConfig{
		Scenario: MulExp, Window: 16, Horizon: 2, Epochs: 4, Seed: 1,
		Model: Config{Channels: []int{8, 8}, KernelSize: 3, WeightNorm: true, FCWidth: 16},
	})
	if err := src.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 120, Seed: 52,
	})[0]
	want, err := src.ForecastFrom(fresh.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	for name, saved := range map[string][]byte{
		"as saved":                  buf.Bytes(),
		"with removed float32 keys": withRemovedFloat32Keys(t, buf.Bytes()),
	} {
		dst, err := LoadPredictor(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Both must produce identical forecasts from the same fresh window.
		got, err := dst.ForecastFrom(fresh.Matrix())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireBitwiseEqual(t, name, got, want)
		// Metadata round trip.
		if len(dst.SelectedIndicators()) != len(src.SelectedIndicators()) {
			t.Fatalf("%s: selected indicators lost", name)
		}
		if dst.Cfg.Scenario != MulExp || dst.Cfg.Horizon != 2 {
			t.Fatalf("%s: config lost: %+v", name, dst.Cfg)
		}
	}
}

func TestPredictorSaveLoadWeightedFactors(t *testing.T) {
	e := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 800, Seed: 53,
	})[0]
	src := NewPredictor(PredictorConfig{
		Scenario: MulExp, Expansion: ExpandWeighted,
		Window: 16, Horizon: 1, Epochs: 3, Seed: 1,
		Model: Config{Channels: []int{8}, KernelSize: 3, WeightNorm: true, FCWidth: 8},
	})
	if err := src.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Weighted factors must replay identically; a mismatch would change
	// the channel count and fail the forward pass.
	if _, err := dst.ForecastFrom(e.Matrix()); err != nil {
		t.Fatalf("restored weighted predictor cannot serve: %v", err)
	}
}

func TestSaveUnfittedFails(t *testing.T) {
	p := NewPredictor(PredictorConfig{})
	var buf bytes.Buffer
	if err := p.Save(&buf); err == nil {
		t.Fatal("expected error saving unfitted predictor")
	}
}

// tinySnapshot is what Save writes for a small predictor fitted on
// syntheticSeries' four indicators: two blocks, the first with a
// downsample, behind weight norm.
func tinySnapshot(t testing.TB) []byte {
	t.Helper()
	p := NewPredictor(PredictorConfig{
		Scenario: MulExp, Window: 8, ExpandFactor: 2, Epochs: 1, Seed: 1,
		Model: Config{Channels: []int{2, 3}, KernelSize: 2, WeightNorm: true, FCWidth: 3},
	})
	if err := p.Fit(syntheticSeries(80), 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// patched returns snapshot with the value at path — a top-level key, or
// "object.key" for a key of a top-level object — set to value.
func patched(t testing.TB, snapshot []byte, path, value string) []byte {
	t.Helper()
	var dump map[string]json.RawMessage
	if err := json.Unmarshal(snapshot, &dump); err != nil {
		t.Fatal(err)
	}
	if object, key, nested := strings.Cut(path, "."); nested {
		path, value = object, string(patched(t, dump[object], key, value))
	}
	dump[path] = json.RawMessage(value)
	out, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// malformedSnapshots are tinySnapshot with one value a builder would
// panic on, or — the last — an architecture the weights do not back.
var malformedSnapshots = map[string][2]string{
	"in-channels-0":           {"model_config.InChannels", "0"},
	"dilations-short":         {"model_config.Dilations", "[1]"},
	"channels-negative":       {"model_config.Channels", "[-4]"},
	"kernel-negative":         {"model_config.KernelSize", "-1"},
	"dropout-1.5":             {"model_config.Dropout", "1.5"},
	"target-out-of-range":     {"target", "4"},
	"fc-width-beyond-weights": {"model_config.FCWidth", "1099511627776"},
	// Weighted Mul-Exp replays the factors fixed at fit time; without them
	// the channel layout would be derived from the first request served.
	"weighted-without-factors": {"config.Expansion", "2"},
}

func TestLoadPredictorRejectsCorruptInput(t *testing.T) {
	snapshot := tinySnapshot(t)
	if _, err := LoadPredictor(bytes.NewReader(snapshot)); err != nil {
		t.Fatalf("unpatched snapshot: %v", err)
	}
	for name, patch := range malformedSnapshots {
		if _, err := LoadPredictor(bytes.NewReader(patched(t, snapshot, patch[0], patch[1]))); err == nil {
			t.Fatalf("%s: expected an error for %s = %s", name, patch[0], patch[1])
		}
	}
	if _, err := LoadPredictor(strings.NewReader("junk")); err == nil {
		t.Fatal("expected error for junk")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"format":99}`)); err == nil {
		t.Fatal("expected error for bad format")
	}
	if _, err := LoadPredictor(strings.NewReader(
		`{"format":1,"norm_min":[0],"norm_max":[1],"selected":[5],"weights":{}}`)); err == nil {
		t.Fatal("expected error for out-of-range selected indicator")
	}
	if _, err := LoadPredictor(strings.NewReader(
		`{"format":1,"norm_min":[0],"norm_max":[1],"selected":[],"weights":{}}`)); err == nil {
		t.Fatal("expected error for empty selection")
	}
	if _, err := LoadPredictor(strings.NewReader(
		`{"format":1,"norm_min":[0,1],"norm_max":[1],"selected":[0],"weights":{}}`)); err == nil {
		t.Fatal("expected error for mismatched extrema")
	}
}

// TestConfigParamCountMatchesModel holds the count LoadPredictor sizes a
// file's weights by to what NewModel allocates, over every switch that
// adds or removes a parameter tensor.
func TestConfigParamCountMatchesModel(t *testing.T) {
	for _, cfg := range []Config{
		{InChannels: 5},
		{InChannels: 4, Channels: []int{2, 3, 3}, KernelSize: 2, WeightNorm: true, FCWidth: 7, Horizon: 3},
		{InChannels: 3, Channels: []int{3}, KernelSize: 1, DisableFC: true},
		{InChannels: 2, Channels: []int{6, 2}, Dilations: []int{4, 1}, DisableAttention: true, Horizon: 2},
		{InChannels: 1, Channels: []int{4}, WeightNorm: true, DisableFC: true, DisableAttention: true},
	} {
		m := NewModel(tensor.NewRNG(1), cfg)
		if got, want := m.Cfg.paramCount(), float64(nn.ParamCount(m)); got != want {
			t.Errorf("%+v: paramCount %g, model holds %g", cfg, got, want)
		}
	}
}

// FuzzLoadPredictor: no bytes make LoadPredictor panic, and whatever it
// accepts serves — forecasting a fixed window either fails or, after a
// Save and a second load, forecasts the same bits. The corpus under
// testdata/fuzz holds tinySnapshot whole, truncated mid-weights, with one
// bit of "format" flipped and with the removed float32 keys, and each of
// malformedSnapshots.
func FuzzLoadPredictor(f *testing.F) {
	window := syntheticSeries(24)
	f.Fuzz(func(t *testing.T, snapshot []byte) {
		p, err := LoadPredictor(bytes.NewReader(snapshot))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := p.Save(&saved); err != nil {
			t.Fatalf("saving what loaded: %v", err)
		}
		q, err := LoadPredictor(&saved)
		if err != nil {
			t.Fatalf("loading what a loaded predictor saved: %v", err)
		}
		want, werr := p.ForecastFrom(window)
		got, gerr := q.ForecastFrom(window)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("forecast errors differ across the round trip: %v vs %v", werr, gerr)
		}
		requireBitwiseEqual(t, "forecast across the round trip", got, want)
	})
}

// TestSaveFileCrashSafety exercises the atomic write path: a round trip
// through SaveFile/LoadPredictorFile works, a truncated snapshot yields
// a clean decode error (never a partial model), and a save that fails
// mid-write (injected via the fsx.write fault point) leaves the
// previous good snapshot untouched.
func TestSaveFileCrashSafety(t *testing.T) {
	e := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 800, Seed: 55,
	})[0]
	p := NewPredictor(PredictorConfig{
		Scenario: Uni, Window: 16, Horizon: 1, Epochs: 3, Seed: 1,
		Model: Config{Channels: []int{8}, KernelSize: 3, FCWidth: 8},
	})
	if err := p.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictorFile(path); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}

	// Truncate the snapshot: loading must fail cleanly.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.json")
	if err := os.WriteFile(truncated, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictorFile(truncated); err == nil {
		t.Fatal("expected error loading truncated snapshot")
	}

	// A save interrupted mid-write must not clobber the good snapshot.
	inj := fault.NewInjector(fault.Rule{Scope: "fsx.write", Kind: fault.KindError})
	off := fault.Activate(inj)
	err = p.SaveFile(path)
	off()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("SaveFile error = %v, want injected", err)
	}
	if _, err := LoadPredictorFile(path); err != nil {
		t.Fatalf("previous snapshot corrupted by failed save: %v", err)
	}
}

func TestLoadedPredictorRefusesTrainingOnlyAPIs(t *testing.T) {
	e := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 800, Seed: 54,
	})[0]
	src := NewPredictor(PredictorConfig{
		Scenario: Uni, Window: 16, Horizon: 1, Epochs: 3, Seed: 1,
		Model: Config{Channels: []int{8}, KernelSize: 3, FCWidth: 8},
	})
	if err := src.Fit(e.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.TestMetrics(); err == nil {
		t.Fatal("TestMetrics should fail on a loaded predictor (no test data)")
	}
	if _, err := dst.Forecast(); err == nil {
		t.Fatal("Forecast should fail on a loaded predictor (no retained series)")
	}
}
