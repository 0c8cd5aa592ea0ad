package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/train"
)

// digestConfigs are the two fits TestTrainingDigest pins: the standing
// benchmark's train-fit (default model, batch 32, 4 epochs; Fit always
// clips at norm 5) and its serving model (16×3 channels, dropout 0.1,
// weight norm, FC 32, divergence guard on). want is the digest the fit
// produced when the test was written.
var digestConfigs = []struct {
	name string
	cfg  PredictorConfig
	want string
}{
	{
		name: "train-fit",
		cfg: PredictorConfig{
			Scenario: MulExp, Window: 32, Horizon: 5, BatchSize: 32, Epochs: 4, Patience: 5, Seed: 7,
		},
		want: "58e470aaa7ce0861a484c3e362d0627c7511b52238427e57c3479892d79e0fda",
	},
	{
		name: "serving",
		cfg: PredictorConfig{
			Scenario: MulExp, Window: 32, Horizon: 5, Epochs: 4, Seed: 1,
			Model: Config{
				Channels: []int{16, 16, 16}, KernelSize: 3, Dilations: []int{1, 2, 4},
				Dropout: 0.1, WeightNorm: true, FCWidth: 32,
			},
			Guard: train.GuardConfig{Enabled: true},
		},
		want: "f575a542f9718f58c194a4a0ad9d5aa12cb560533f06775b904b1c47744fc96a",
	},
}

// TestTrainingDigest pins the bits training produces, not merely that two
// paths of one build agree: SHA-256 over the little-endian float64 bits of
// the fitted weights and of every test prediction, for each config in
// digestConfigs at 1, 2 and 4 pool workers, against digests recorded in
// this file. A change that moves them moves training's arithmetic; one
// that means to says which digest moved and why.
func TestTrainingDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64: the Go spec lets arm64, ppc64le, s390x and riscv64 fuse x*y+z, and the pure-Go loops outside the GEMM do not force rounding")
	}
	// 600 samples give 337 training windows: ten full batches of 32 and
	// a short one of 17.
	series := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 600, Seed: 31,
	})[0].Matrix()
	for _, c := range digestConfigs {
		for _, workers := range []int{1, 2, 4} {
			prev := par.SetWorkers(workers)
			got, short := fitDigest(t, c.cfg, series)
			par.SetWorkers(prev)
			if short == 0 {
				t.Fatalf("%s: the training split ends in a full batch", c.name)
			}
			if got != c.want {
				t.Errorf("%s at %d workers: digest %s, want %s", c.name, workers, got, c.want)
			}
		}
	}
}

// TestProfiledTrainingDigest: timing the stages changes no bit of
// training. The serving config, fitted with a Profiler attached at 1 and
// 2 pool workers — the row chunks timed from two goroutines at once —
// commits the digest the unprofiled fit does.
func TestProfiledTrainingDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64 (see TestTrainingDigest)")
	}
	series := trace.Generate(trace.GeneratorConfig{
		Entities: 1, Kind: trace.Container, Samples: 600, Seed: 31,
	})[0].Matrix()
	c := digestConfigs[1]
	for _, workers := range []int{1, 2} {
		cfg := c.cfg
		cfg.Profiler = nn.NewProfiler()
		prev := par.SetWorkers(workers)
		got, _ := fitDigest(t, cfg, series)
		par.SetWorkers(prev)
		if got != c.want {
			t.Errorf("%s profiled at %d workers: digest %s, want %s", c.name, workers, got, c.want)
		}
		if st := cfg.Profiler.Stats(); len(st) != 7 || st[0].FwdCalls == 0 || st[0].BwdCalls == 0 {
			t.Errorf("%s at %d workers: the profiler saw %+v", c.name, workers, st)
		}
	}
}

// fitDigest fits a predictor with cfg and hashes its weights and test
// predictions. short is the size of the training split's last batch, 0
// when it is a full one.
func fitDigest(t *testing.T, cfg PredictorConfig, series [][]float64) (digest string, short int) {
	t.Helper()
	p := NewPredictor(cfg)
	if err := p.Fit(series, int(trace.CPUUtilPercent)); err != nil {
		t.Fatal(err)
	}
	s := p.serving.Load()
	h := sha256.New()
	for _, prm := range s.model.Params() {
		hashFloats(h, prm.Value.Data)
	}
	for _, row := range train.PredictAll(s.model, s.test) {
		hashFloats(h, row)
	}
	windows := len(p.prepared[0]) - p.Cfg.Window - p.Cfg.Horizon + 1
	return hex.EncodeToString(h.Sum(nil)), int(float64(windows)*p.Cfg.TrainFrac) % p.Cfg.BatchSize
}

func hashFloats(h hash.Hash, xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}
