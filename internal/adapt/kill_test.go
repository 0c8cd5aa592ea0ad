package adapt

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/quality"
)

// TestAdaptKillDuringRetrain is the crash chaos test from the issue's
// acceptance criteria: a child process is SIGKILLed in the middle of a
// candidate fine-tune (after it has written checkpoints), then a fresh
// supervisor over the same state dir must recover cleanly — in-flight
// candidate discarded, artifacts pruned, state idle — and the NEXT
// retrain must converge, promote, and serve bitwise-deterministic
// forecasts at any worker count.
func TestAdaptKillDuringRetrain(t *testing.T) {
	if os.Getenv("ADAPT_KILL_HELPER") == "1" {
		adaptKillHelper(t)
		return
	}
	if testing.Short() {
		t.Skip("re-exec chaos test skipped in -short")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestAdaptKillDuringRetrain$")
	cmd.Env = append(os.Environ(), "ADAPT_KILL_HELPER=1", "ADAPT_KILL_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() }()

	// Wait for the child's fine-tune to start checkpointing, then pull
	// the plug mid-training.
	candDir := filepath.Join(dir, "candidates")
	deadline := time.Now().Add(120 * time.Second)
	for {
		if files, _ := filepath.Glob(filepath.Join(candDir, "ckpt-*.json")); len(files) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never wrote a candidate checkpoint")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	// Restart: a supervisor over the same dir must come up idle with the
	// orphaned candidate gone.
	f := newFixture(t, Config{Dir: dir})
	st := f.sup.Status()
	if st.State != StateIdle {
		t.Fatalf("recovered state = %q, want idle", st.State)
	}
	if files, _ := filepath.Glob(filepath.Join(candDir, "ckpt-*.json")); len(files) != 0 {
		t.Fatalf("orphaned candidate checkpoints survived recovery: %v", files)
	}
	if st.Retrains == 0 {
		t.Fatal("retrain counter lost across the crash")
	}

	// The next retrain converges and promotes.
	f.trigger()
	f.waitState(t, StateShadow)
	f.feedScoring(t, 0, func() bool { return f.sup.Status().State == StateProbation })
	if got := f.p.Generation(); got != 2 {
		t.Fatalf("generation after post-crash promotion = %d, want 2", got)
	}

	// Post-swap forecasts are bitwise identical at any worker count.
	hist := f.p.MinHistory()
	win := sliceSeries(f.ser, fxSamples-hist, fxSamples)
	ref, err := f.p.ForecastFrom(win)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		prev := par.SetWorkers(workers)
		got, err := f.p.ForecastFrom(win)
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
				t.Fatalf("workers=%d: forecast[%d] %x vs %x", workers, i, math.Float64bits(ref[i]), math.Float64bits(got[i]))
			}
		}
	}
}

// adaptKillHelper runs in the child process: it starts a deliberately
// slow fine-tune (thousands of epochs, checkpoint every epoch) and then
// parks, waiting to be SIGKILLed by the parent.
func adaptKillHelper(t *testing.T) {
	dir := os.Getenv("ADAPT_KILL_DIR")
	if dir == "" {
		t.Fatal("ADAPT_KILL_DIR not set")
	}
	f := newFixture(t, Config{
		Dir: dir,
		FineTune: core.FineTuneConfig{
			Epochs: 100000, // far longer than the parent lets us live
			Seed:   5,
		},
	})
	// A fine-tune inherits the predictor's patience: no early stop, so it
	// stays mid-training until killed.
	f.p.Cfg.Patience = 100000
	f.sup.OnQualityEvent(quality.Event{Kind: "mutation", Signal: "input", Entity: "m1", T: int64(fxMutateAt + 20)})
	select {} // killed from outside
}
