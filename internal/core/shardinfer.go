package core

import (
	"errors"

	"repro/internal/nn"
)

// ShardInferencer is a per-shard serving engine: a private deep copy of
// the serving model plus its own warmed arena pool. The shared
// Predictor serializes every ForecastBatch on inferMu — the arena
// kernels keep per-call state, so one model instance can only ever run
// one forward at a time — which caps a fleet of shard workers at one
// core and, worse, convoys every request behind every other inferMu
// hold (another shard's forward, a hot-swap). A replica per shard
// removes both: N workers run N forwards truly in parallel, and a swap
// on the shared predictor never stalls a replica mid-batch.
//
// Replicas follow hot-swaps by generation: each batch snapshots the
// predictor's (model, generation) pair and re-clones when the
// generation moved, so a promotion or rollback propagates to every
// shard within one batch. Because Clone copies weights exactly and the
// kernels are deterministic, a replica's forecasts are bitwise
// identical to the shared predictor's for the same generation (pinned
// by TestShardInferencerMatchesPredictor).
//
// A ShardInferencer is not synchronized: exactly one shard worker owns
// it.
type ShardInferencer struct {
	batchForward
	p     *Predictor
	model *Model
	gen   int64
}

// NewShardInferencer returns an engine serving p's current (and future)
// generations through a private replica. The replica is materialized
// lazily on the first batch.
func (p *Predictor) NewShardInferencer() *ShardInferencer {
	return &ShardInferencer{p: p}
}

// MinHistory mirrors Predictor.MinHistory.
func (si *ShardInferencer) MinHistory() int { return si.p.MinHistory() }

// PrepareInput mirrors Predictor.PrepareInput (the pipeline is frozen at
// Fit, so prepared inputs are engine-independent).
func (si *ShardInferencer) PrepareInput(series [][]float64) (*PreparedInput, error) {
	return si.p.PrepareInput(series)
}

// Generation returns the generation the replica currently mirrors (0
// before the first batch).
func (si *ShardInferencer) Generation() int64 { return si.gen }

// refresh snapshots the shared predictor's (model, generation) pair and
// re-clones the replica if a hot-swap landed since the last batch. The
// steady-state check is one atomic load of the predictor's published
// generation sequence — no lock — so a SwapModel hold never convoys
// replica serving; the replica keeps answering on its previous-
// generation clone until the swap publishes. Only on an actual
// generation move does it pay the ModelGen lock: the snapshot is atomic
// (one inferMu hold), and Clone only reads the source model's weights —
// which are never mutated in place, only replaced by SwapModel — so
// cloning outside the lock is safe even while the shared predictor
// keeps serving.
func (si *ShardInferencer) refresh() error {
	if si.model != nil && si.p.genSeq.Load() == si.gen {
		return nil
	}
	m, gen := si.p.ModelGen()
	if m == nil {
		return errors.New("core: predictor not fitted")
	}
	if si.model == nil || gen != si.gen {
		si.model = m.Clone()
		nn.Freeze(si.model)
		si.gen = gen
	}
	return nil
}

// ForecastBatchGen runs one grad-free forward over prepared windows on
// the replica, bitwise identical to Predictor.ForecastBatchGen for the
// same generation, without ever taking the shared inference lock for
// the forward itself.
func (si *ShardInferencer) ForecastBatchGen(inputs []*PreparedInput) ([][]float64, int64, error) {
	if err := si.refresh(); err != nil {
		return nil, 0, err
	}
	res, err := si.run(si.p, si.model, inputs)
	if err != nil {
		return nil, 0, err
	}
	return res, si.gen, nil
}
