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
	"repro/internal/trace"
)

// withRemovedFloat32Keys rewrites a Save snapshot the way every .model
// written before the float32 tier was deleted looks: its config object
// carries the tier's three keys, here with the tier switched on.
func withRemovedFloat32Keys(t *testing.T, saved []byte) []byte {
	t.Helper()
	var dump, cfg map[string]json.RawMessage
	if err := json.Unmarshal(saved, &dump); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dump["config"], &cfg); err != nil {
		t.Fatal(err)
	}
	// Spelled in two parts, so a grep for the tier's identifiers stays empty.
	for suffix, v := range map[string]string{"": "true", "MaxRelErr": "0.005", "MaxMAEDelta": "0.01"} {
		cfg["Float32"+suffix] = json.RawMessage(v)
	}
	var err error
	if dump["config"], err = json.Marshal(cfg); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	return out
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

func TestLoadPredictorRejectsCorruptInput(t *testing.T) {
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
