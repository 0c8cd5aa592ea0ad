package train

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fault"
	"repro/internal/fsx"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// CheckpointConfig controls periodic training checkpoints and resume.
// A checkpoint captures everything an interrupted run needs to continue
// bitwise identically to an uninterrupted one: model weights, optimizer
// slots, the shuffle RNG stream, every layer-internal RNG stream
// (dropout masks), the loss history, and the early-stopping bookkeeping.
type CheckpointConfig struct {
	// Dir enables checkpointing when non-empty; checkpoint files are
	// written there as ckpt-<epoch>.json with atomic temp+fsync+rename.
	Dir string
	// Every is the epoch interval between checkpoints (default 1).
	Every int
	// Resume makes Fit restore the newest loadable checkpoint in Dir
	// before training; corrupt or missing checkpoints start fresh.
	Resume bool
	// Keep is how many recent checkpoints to retain (default 2 — the
	// newest may be mid-write during a crash, so always keep a spare).
	Keep int
}

func (c *CheckpointConfig) fillDefaults() {
	if c.Every <= 0 {
		c.Every = 1
	}
	if c.Keep <= 0 {
		c.Keep = 2
	}
}

func (c CheckpointConfig) enabled() bool { return c.Dir != "" }

// checkpointFormat is bumped on incompatible checkpoint changes.
const checkpointFormat = 1

// checkpointDump is the on-disk checkpoint. Loss values are stored as
// IEEE-754 bit patterns: they survive NaN/Inf (invalid in JSON) and are
// exactly round-trippable, which the bitwise resume contract requires.
type checkpointDump struct {
	Format  int  `json:"format"`
	Epoch   int  `json:"epoch"` // completed epochs; resume starts here
	Stopped bool `json:"stopped,omitempty"`

	TrainLossBits []uint64 `json:"train_loss_bits"`
	ValidLossBits []uint64 `json:"valid_loss_bits"`
	BestEpoch     int      `json:"best_epoch"`
	BestBits      uint64   `json:"best_bits"`
	Wait          int      `json:"wait"`

	ShuffleRNG tensor.RNGState   `json:"shuffle_rng"`
	LayerRNGs  []tensor.RNGState `json:"layer_rngs,omitempty"`
	Optimizer  *opt.State        `json:"optimizer,omitempty"`

	Weights     json.RawMessage `json:"weights"`
	BestWeights [][]float64     `json:"best_weights,omitempty"`
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func bitsFloats(bits []uint64) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// checkpointPath names the checkpoint file for a completed-epoch count.
func checkpointPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%06d.json", epoch))
}

// listCheckpoints returns checkpoint files in dir, oldest first.
func listCheckpoints(dir string) []string {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
	if err != nil {
		return nil
	}
	sort.Strings(matches)
	return matches
}

// saveCheckpoint writes one checkpoint crash-safely and prunes old
// files down to keep. The "train.checkpoint" fault point can inject an
// I/O error here; Fit treats checkpoint failures as non-fatal.
func saveCheckpoint(dir string, keep int, dump *checkpointDump) error {
	if err := fault.Error("train.checkpoint"); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("train: checkpoint dir: %w", err)
	}
	path := checkpointPath(dir, dump.Epoch)
	err := fsx.WriteFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(dump)
	})
	if err != nil {
		return err
	}
	PruneCheckpoints(dir, keep)
	return nil
}

// PruneCheckpoints removes all but the newest keep checkpoint files
// under dir, returning how many were removed (keep ≤ 0 removes all; a
// missing dir is a no-op). Fit prunes after every save; the adaptation
// supervisor also calls this directly to clear candidate-model
// artifacts left behind by failed or killed retrains, so crash
// leftovers can never accumulate into a full disk.
func PruneCheckpoints(dir string, keep int) int {
	if keep < 0 {
		keep = 0
	}
	files := listCheckpoints(dir)
	removed := 0
	for len(files) > keep {
		if os.Remove(files[0]) == nil {
			removed++
		}
		files = files[1:]
	}
	return removed
}

// loadCheckpoint reads and validates one checkpoint file.
func loadCheckpoint(path string) (*checkpointDump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	defer f.Close()
	var dump checkpointDump
	if err := json.NewDecoder(f).Decode(&dump); err != nil {
		return nil, fmt.Errorf("train: decoding checkpoint %s: %w", path, err)
	}
	if dump.Format != checkpointFormat {
		return nil, fmt.Errorf("train: unsupported checkpoint format %d (want %d)", dump.Format, checkpointFormat)
	}
	if dump.Epoch <= 0 || len(dump.TrainLossBits) != dump.Epoch || len(dump.ValidLossBits) != dump.Epoch {
		return nil, fmt.Errorf("train: corrupt checkpoint %s: epoch %d with %d/%d loss entries",
			path, dump.Epoch, len(dump.TrainLossBits), len(dump.ValidLossBits))
	}
	if len(dump.Weights) == 0 {
		return nil, fmt.Errorf("train: corrupt checkpoint %s: no weights", path)
	}
	return &dump, nil
}

// latestLoadableCheckpoint walks dir's checkpoints newest-first and
// returns the first that loads cleanly — a crash can leave the newest
// file truncated, in which case the previous one is the resume point.
// It returns (nil, nil) when the directory holds no checkpoints at all.
func latestLoadableCheckpoint(dir string) (*checkpointDump, error) {
	files := listCheckpoints(dir)
	var firstErr error
	for i := len(files) - 1; i >= 0; i-- {
		dump, err := loadCheckpoint(files[i])
		if err == nil {
			return dump, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, nil
}

// captureCheckpoint snapshots the full training state after `epoch`
// completed epochs.
func captureCheckpoint(model nn.Layer, optimizer opt.Optimizer, rng *tensor.RNG,
	hist *History, best float64, wait int, bestParams []*tensor.Tensor,
	epoch int, stopped bool) (*checkpointDump, error) {

	var weights bytes.Buffer
	if err := nn.SaveParams(&weights, model); err != nil {
		return nil, err
	}
	dump := &checkpointDump{
		Format:        checkpointFormat,
		Epoch:         epoch,
		Stopped:       stopped,
		TrainLossBits: floatBits(hist.TrainLoss),
		ValidLossBits: floatBits(hist.ValidLoss),
		BestEpoch:     hist.BestEpoch,
		BestBits:      math.Float64bits(best),
		Wait:          wait,
		ShuffleRNG:    rng.State(),
		LayerRNGs:     nn.RNGStates(model),
		Weights:       json.RawMessage(weights.Bytes()),
	}
	if st, ok := optimizer.(opt.Stateful); ok {
		s := st.CaptureState(model.Params())
		dump.Optimizer = &s
	}
	if bestParams != nil {
		dump.BestWeights = make([][]float64, len(bestParams))
		for i, t := range bestParams {
			dump.BestWeights[i] = append([]float64(nil), t.Data...)
		}
	}
	return dump, nil
}

// restoreCheckpoint reinstalls a checkpoint into a freshly built model
// and optimizer, returning the early-stopping bookkeeping Fit needs.
// The model must have the architecture the checkpoint was captured
// from; mismatches are errors.
func restoreCheckpoint(dump *checkpointDump, model nn.Layer, optimizer opt.Optimizer,
	rng *tensor.RNG, hist *History) (best float64, wait int, bestParams []*tensor.Tensor, err error) {

	if err = nn.LoadParams(bytes.NewReader(dump.Weights), model); err != nil {
		return 0, 0, nil, err
	}
	if err = nn.SetRNGStates(model, dump.LayerRNGs); err != nil {
		return 0, 0, nil, err
	}
	if dump.Optimizer != nil {
		st, ok := optimizer.(opt.Stateful)
		if !ok {
			return 0, 0, nil, fmt.Errorf("train: checkpoint has optimizer state but %T cannot restore it", optimizer)
		}
		if err = st.RestoreState(model.Params(), *dump.Optimizer); err != nil {
			return 0, 0, nil, err
		}
	}
	rng.SetState(dump.ShuffleRNG)
	hist.TrainLoss = bitsFloats(dump.TrainLossBits)
	hist.ValidLoss = bitsFloats(dump.ValidLossBits)
	hist.BestEpoch = dump.BestEpoch
	hist.Stopped = dump.Stopped

	if dump.BestWeights != nil {
		ps := model.Params()
		if len(dump.BestWeights) != len(ps) {
			return 0, 0, nil, fmt.Errorf("train: checkpoint best weights cover %d params, model has %d",
				len(dump.BestWeights), len(ps))
		}
		bestParams = make([]*tensor.Tensor, len(ps))
		for i, p := range ps {
			if len(dump.BestWeights[i]) != p.Value.Size() {
				return 0, 0, nil, fmt.Errorf("train: checkpoint best weights param %d length %d, want %d",
					i, len(dump.BestWeights[i]), p.Value.Size())
			}
			bestParams[i] = tensor.New(p.Value.Shape()...)
			copy(bestParams[i].Data, dump.BestWeights[i])
		}
	}
	return math.Float64frombits(dump.BestBits), dump.Wait, bestParams, nil
}
