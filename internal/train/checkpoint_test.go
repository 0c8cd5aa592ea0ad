package train

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// ckptModel builds a small model with a dropout layer, so resume has a
// layer-internal RNG stream to get right, not just the shuffle RNG.
func ckptModel(seed uint64) nn.Layer {
	r := tensor.NewRNG(seed)
	return nn.NewSequential(
		nn.NewDense(r, 1, 8), &nn.Tanh{},
		nn.NewDropout(r, 0.2),
		nn.NewDense(r, 8, 1),
	)
}

func ckptConfig(dir string) Config {
	return Config{
		Epochs: 8, BatchSize: 8, Optimizer: opt.NewAdam(0.01),
		Shuffle: true, Seed: 17, RestoreBest: true, ClipNorm: 5,
		Checkpoint: CheckpointConfig{Dir: dir},
	}
}

func requireSameHistory(t *testing.T, want, got *History) {
	t.Helper()
	if len(got.TrainLoss) != len(want.TrainLoss) || len(got.ValidLoss) != len(want.ValidLoss) {
		t.Fatalf("history lengths %d/%d, want %d/%d",
			len(got.TrainLoss), len(got.ValidLoss), len(want.TrainLoss), len(want.ValidLoss))
	}
	for i := range want.TrainLoss {
		if math.Float64bits(got.TrainLoss[i]) != math.Float64bits(want.TrainLoss[i]) {
			t.Fatalf("train loss diverges at epoch %d: %x vs %x",
				i, got.TrainLoss[i], want.TrainLoss[i])
		}
		if math.Float64bits(got.ValidLoss[i]) != math.Float64bits(want.ValidLoss[i]) {
			t.Fatalf("valid loss diverges at epoch %d: %x vs %x",
				i, got.ValidLoss[i], want.ValidLoss[i])
		}
	}
	if got.BestEpoch != want.BestEpoch || got.Stopped != want.Stopped {
		t.Fatalf("bookkeeping differs: best %d/%d stopped %v/%v",
			got.BestEpoch, want.BestEpoch, got.Stopped, want.Stopped)
	}
}

func requireSameWeights(t *testing.T, want, got nn.Layer) {
	t.Helper()
	wp, gp := want.Params(), got.Params()
	if len(wp) != len(gp) {
		t.Fatalf("param counts %d vs %d", len(gp), len(wp))
	}
	for i := range wp {
		for j := range wp[i].Value.Data {
			if math.Float64bits(gp[i].Value.Data[j]) != math.Float64bits(wp[i].Value.Data[j]) {
				t.Fatalf("param %d[%d] differs: %x vs %x",
					i, j, gp[i].Value.Data[j], wp[i].Value.Data[j])
			}
		}
	}
}

// TestCheckpointResumeBitwise is the core resume contract: a run killed
// mid-epoch (a panicking hook stands in for SIGKILL) and resumed from
// its newest checkpoint must reproduce the uninterrupted run's loss
// history and final weights bit for bit.
func TestCheckpointResumeBitwise(t *testing.T) {
	d := sineDataset(120)
	tr, va, _, err := Split(d, 0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted baseline, no checkpointing at all.
	baseline := ckptModel(9)
	cfgBase := ckptConfig("")
	baseHist := Fit(baseline, tr, va, cfgBase)

	// Interrupted run: die in the middle of epoch 4's batch loop.
	dir := t.TempDir()
	killed := ckptModel(9)
	cfgKill := ckptConfig(dir)
	cfgKill.Hooks = []Hook{FuncHook{BatchEnd: func(s BatchStats) {
		if s.Epoch == 4 && s.Batch == 2 {
			panic("simulated crash")
		}
	}}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("crash hook never fired")
			}
		}()
		Fit(killed, tr, va, cfgKill)
	}()
	if dump, err := latestLoadableCheckpoint(dir); err != nil || dump == nil || dump.Epoch == 0 || dump.Epoch > 4 {
		t.Fatalf("unexpected checkpoint state after crash: %+v, %v", dump, err)
	}

	// Resume in a fresh process: fresh model, same config, Resume on.
	resumed := ckptModel(9)
	cfgResume := ckptConfig(dir)
	cfgResume.Checkpoint.Resume = true
	resHist := Fit(resumed, tr, va, cfgResume)

	requireSameHistory(t, baseHist, resHist)
	requireSameWeights(t, baseline, resumed)
}

// TestCheckpointResumeAcrossEarlyStop: a run that early-stops writes a
// final Stopped checkpoint; resuming from it must return immediately
// with the same history instead of training past the stop.
func TestCheckpointResumeAcrossEarlyStop(t *testing.T) {
	r := tensor.NewRNG(3)
	trD := Dataset{X: tensor.Full(0.5, 40, 1), Y: tensor.Full(0.5, 40, 1)}
	vaD := Dataset{X: tensor.Full(0.5, 20, 1), Y: tensor.RandN(r, 20, 1)}
	dir := t.TempDir()
	cfg := Config{
		Epochs: 300, BatchSize: 8, Optimizer: opt.NewAdam(0.05),
		Patience: 4, RestoreBest: true,
		Checkpoint: CheckpointConfig{Dir: dir},
	}
	first := ckptModel(21)
	firstHist := Fit(first, trD, vaD, cfg)
	if !firstHist.Stopped {
		t.Fatal("run never early-stopped")
	}

	cfg.Checkpoint.Resume = true
	cfg.Optimizer = opt.NewAdam(0.05)
	resumed := ckptModel(21)
	resHist := Fit(resumed, trD, vaD, cfg)
	requireSameHistory(t, firstHist, resHist)
	requireSameWeights(t, first, resumed)
}

// TestResumeSkipsCorruptNewestCheckpoint: when a crash truncates the
// newest checkpoint file, resume falls back to the previous one — and
// determinism still reproduces the baseline bitwise.
func TestResumeSkipsCorruptNewestCheckpoint(t *testing.T) {
	d := sineDataset(120)
	tr, va, _, err := Split(d, 0.6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	baseline := ckptModel(13)
	baseHist := Fit(baseline, tr, va, ckptConfig(""))

	dir := t.TempDir()
	cfgKill := ckptConfig(dir)
	cfgKill.Checkpoint.Keep = 3
	cfgKill.Epochs = 5 // stand-in for a kill at the epoch-5 boundary
	Fit(ckptModel(13), tr, va, cfgKill)

	files := listCheckpoints(dir)
	if len(files) < 2 {
		t.Fatalf("want >=2 checkpoints, have %v", files)
	}
	newest := files[len(files)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	cfgResume := ckptConfig(dir)
	cfgResume.Checkpoint.Keep = 3
	cfgResume.Checkpoint.Resume = true
	resumed := ckptModel(13)
	resHist := Fit(resumed, tr, va, cfgResume)
	requireSameHistory(t, baseHist, resHist)
	requireSameWeights(t, baseline, resumed)
}

// TestCheckpointKeepPrunes: only the Keep newest checkpoint files
// survive a long run.
func TestCheckpointKeepPrunes(t *testing.T) {
	d := sineDataset(80)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	dir := t.TempDir()
	cfg := ckptConfig(dir)
	cfg.Epochs = 6
	cfg.Checkpoint.Keep = 2
	Fit(ckptModel(1), tr, va, cfg)
	files := listCheckpoints(dir)
	if len(files) != 2 {
		t.Fatalf("want 2 checkpoints after pruning, have %v", files)
	}
	if filepath.Base(files[1]) != "ckpt-000006.json" {
		t.Fatalf("newest checkpoint is %s, want ckpt-000006.json", files[1])
	}
}

// TestPruneCheckpoints: the exported pruner removes oldest-first down
// to keep, clears everything at keep 0, and no-ops on a missing dir —
// the contract the adaptation supervisor relies on to sweep candidate
// artifacts at startup.
func TestPruneCheckpoints(t *testing.T) {
	d := sineDataset(80)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	dir := t.TempDir()
	cfg := ckptConfig(dir)
	cfg.Epochs = 5
	cfg.Checkpoint.Keep = 5
	Fit(ckptModel(1), tr, va, cfg)
	if n := len(listCheckpoints(dir)); n != 5 {
		t.Fatalf("setup: %d checkpoints, want 5", n)
	}
	if removed := PruneCheckpoints(dir, 2); removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	files := listCheckpoints(dir)
	if len(files) != 2 || filepath.Base(files[1]) != "ckpt-000005.json" {
		t.Fatalf("after prune: %v, want the 2 newest", files)
	}
	if removed := PruneCheckpoints(dir, 0); removed != 2 {
		t.Fatalf("keep=0 removed %d, want 2", removed)
	}
	if n := len(listCheckpoints(dir)); n != 0 {
		t.Fatalf("%d checkpoints survive keep=0", n)
	}
	if removed := PruneCheckpoints(filepath.Join(dir, "nope"), 0); removed != 0 {
		t.Fatalf("missing dir removed %d", removed)
	}
}

// TestCheckpointWriteFailureNonFatal: an injected checkpoint I/O error
// must not perturb training — the history stays bitwise identical to a
// run without checkpointing.
func TestCheckpointWriteFailureNonFatal(t *testing.T) {
	d := sineDataset(80)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	clean := Fit(ckptModel(7), tr, va, ckptConfig(""))

	inj := fault.NewInjector(fault.Rule{Scope: "train.checkpoint", Kind: fault.KindError})
	defer fault.Activate(inj)()
	dir := t.TempDir()
	broken := Fit(ckptModel(7), tr, va, ckptConfig(dir))
	requireSameHistory(t, clean, broken)
	if files := listCheckpoints(dir); len(files) != 0 {
		t.Fatalf("checkpoints written despite injected failure: %v", files)
	}
	if inj.Fired("train.checkpoint") == 0 {
		t.Fatal("fault point never fired")
	}
}

// nanToggle is a model whose output passes through until poisoned, then
// is NaN — a stand-in for a model whose activations diverge mid-run. It
// wraps the model: a Sequential runs only nn's own layers.
type nanToggle struct {
	nn.Layer
	poisoned bool
}

func (n *nanToggle) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	x = n.Layer.Forward(x, train)
	if !n.poisoned {
		return x
	}
	out := tensor.New(x.Shape()...)
	for i := range out.Data {
		out.Data[i] = math.NaN()
	}
	return out
}

// TestGuardSkipsInjectedNaNBatches: with the guard on, batches whose
// loss is poisoned by the train.batch.loss fault point are skipped and
// the recorded history stays finite — and the epoch's mean gradient norm
// is taken over the batches that were applied, as its mean loss is; with
// the guard off, the poison reaches the history.
func TestGuardSkipsInjectedNaNBatches(t *testing.T) {
	d := sineDataset(120)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	run := func(guard bool) (*History, int) {
		inj := fault.NewInjector(fault.Rule{
			Scope: "train.batch.loss", Kind: fault.KindNaN, After: 3, Every: 4,
		})
		defer fault.Activate(inj)()
		skipped := 0
		normSum, applied := 0.0, 0
		cfg := Config{
			Epochs: 5, BatchSize: 8, Optimizer: opt.NewAdam(0.01),
			Shuffle: true, Seed: 23,
			Guard: GuardConfig{Enabled: guard},
			Hooks: []Hook{FuncHook{
				BatchEnd: func(s BatchStats) {
					if !s.Skipped {
						normSum += s.GradNorm
						applied++
					}
				},
				EpochEnd: func(s EpochStats) {
					skipped += s.SkippedBatches
					if want := normSum / float64(applied); guard && s.GradNorm != want {
						t.Errorf("epoch %d: GradNorm %g, the mean over its %d applied batches is %g (%d skipped)",
							s.Epoch, s.GradNorm, applied, want, s.SkippedBatches)
					}
					normSum, applied = 0, 0
				},
			}},
		}
		return Fit(ckptModel(5), tr, va, cfg), skipped
	}

	guarded, skipped := run(true)
	if skipped == 0 {
		t.Fatal("guard never skipped an injected-NaN batch")
	}
	for i, l := range guarded.TrainLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("guarded history has non-finite train loss at epoch %d", i)
		}
	}

	unguarded, _ := run(false)
	sawNaN := false
	for _, l := range unguarded.TrainLoss {
		if math.IsNaN(l) {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Fatal("injection had no effect with the guard off — the guard test proves nothing")
	}
}

// TestGuardExplodingLossThreshold: MaxLoss treats a finite but explosive
// batch loss as divergent.
func TestGuardExplodingLossThreshold(t *testing.T) {
	d := sineDataset(80)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	inj := fault.NewInjector(fault.Rule{
		Scope: "train.batch.loss", Kind: fault.KindNaN, Value: 1e12, After: 2, Every: 3,
	})
	defer fault.Activate(inj)()
	skipped := 0
	Fit(ckptModel(5), tr, va, Config{
		Epochs: 3, BatchSize: 8, Optimizer: opt.NewAdam(0.01),
		Guard: GuardConfig{Enabled: true, MaxLoss: 1e6},
		Hooks: []Hook{FuncHook{EpochEnd: func(s EpochStats) { skipped += s.SkippedBatches }}},
	})
	if int64(skipped) != inj.Fired("train.batch.loss") {
		t.Fatalf("skipped %d batches, injector fired %d times",
			skipped, inj.Fired("train.batch.loss"))
	}
}

// TestGuardRollsBackOnNaNValidation: when the model itself diverges
// (validation loss NaN), the guard restores the best weights and
// training recovers.
func TestGuardRollsBackOnNaNValidation(t *testing.T) {
	d := sineDataset(120)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	r := tensor.NewRNG(31)
	toggle := &nanToggle{Layer: nn.NewSequential(nn.NewDense(r, 1, 8), &nn.Tanh{}, nn.NewDense(r, 8, 1))}
	model := toggle
	var rolledBackAt []int
	hist := Fit(model, tr, va, Config{
		Epochs: 5, BatchSize: 8, Optimizer: opt.NewAdam(0.01),
		Guard: GuardConfig{Enabled: true},
		Hooks: []Hook{FuncHook{EpochEnd: func(s EpochStats) {
			if s.RolledBack {
				rolledBackAt = append(rolledBackAt, s.Epoch)
			}
			switch s.Epoch {
			case 1:
				toggle.poisoned = true // epoch 2 diverges completely
			case 2:
				toggle.poisoned = false // and then heals
			}
		}}},
	})
	if len(rolledBackAt) != 1 || rolledBackAt[0] != 2 {
		t.Fatalf("rollbacks at %v, want exactly epoch 2", rolledBackAt)
	}
	if !math.IsNaN(hist.ValidLoss[2]) {
		t.Fatal("poisoned epoch should have recorded a NaN validation loss")
	}
	if hist.BestEpoch == 2 {
		t.Fatal("diverged epoch became best")
	}
	// Post-rollback epochs train on restored weights: finite again.
	for _, i := range []int{3, 4} {
		if math.IsNaN(hist.ValidLoss[i]) || math.IsInf(hist.ValidLoss[i], 0) {
			t.Fatalf("epoch %d still non-finite after rollback", i)
		}
	}
	// The final model (best weights restored off by default here) must
	// be finite and serve.
	for _, p := range model.Params() {
		for _, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("model carries non-finite weights after guarded run")
			}
		}
	}
}

// TestNaNValidationNeverBecomesBest pins the best-weight rule: even
// with every guard disabled, a NaN validation loss must never register
// as an improvement, so RestoreBest always lands on finite weights.
func TestNaNValidationNeverBecomesBest(t *testing.T) {
	d := sineDataset(120)
	tr, va, _, _ := Split(d, 0.6, 0.2)
	r := tensor.NewRNG(37)
	toggle := &nanToggle{Layer: nn.NewSequential(nn.NewDense(r, 1, 8), &nn.Tanh{}, nn.NewDense(r, 8, 1))}
	model := toggle
	hist := Fit(model, tr, va, Config{
		Epochs: 4, BatchSize: 8, Optimizer: opt.NewAdam(0.01),
		RestoreBest: true,
		Hooks: []Hook{FuncHook{EpochEnd: func(s EpochStats) {
			if s.Epoch == 0 {
				toggle.poisoned = true // every later epoch is NaN
			}
			if s.Epoch > 0 && s.Improved {
				t.Errorf("epoch %d with NaN validation loss marked improved", s.Epoch)
			}
			if math.IsNaN(s.BestValidLoss) {
				t.Errorf("epoch %d: BestValidLoss became NaN", s.Epoch)
			}
		}}},
	})
	if hist.BestEpoch != 0 {
		t.Fatalf("BestEpoch = %d, want 0 (the only finite epoch)", hist.BestEpoch)
	}
	toggle.poisoned = false
	got := EvaluateLoss(model, va, &nn.MSELoss{})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatal("RestoreBest landed on non-finite weights")
	}
	if math.Float64bits(got) != math.Float64bits(hist.ValidLoss[0]) {
		t.Fatalf("restored weights evaluate to %g, want epoch-0 loss %g", got, hist.ValidLoss[0])
	}
}
