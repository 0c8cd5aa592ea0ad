package main

import (
	"bytes"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// twins are the harness's own copies of what sits behind the server's
// handlers, built with the server's configuration, so that the traced run
// can call each layer's public entry point on the input the server was
// given: a shard router, a ring store, the frozen data pipeline, the model
// on an arena and the model's matrix products.
type twins struct {
	pred   *core.Predictor
	router *shard.Router
	store  *trace.RingStore

	norm     *dataprep.Normalizer
	selected []int
	model    *core.Model
	arena    *nn.InferArena
	x        *tensor.Tensor // [1, channels, window]
	gemm     *gemmPlan
}

func newTwins(p *core.Predictor, maxEntities int) (*twins, error) {
	router, err := shard.New(shard.Config{
		Shards: 1, MaxBatch: 32, RingCapacity: ringCapacity, MaxEntities: maxEntities,
		Engines: []shard.Engine{p}, Registry: obs.NewRegistry(), Log: obs.NopLogger(),
	})
	if err != nil {
		return nil, fmt.Errorf("twin router: %w", err)
	}
	lo, hi := p.NormBounds()
	m := p.Model()
	return &twins{
		pred: p, router: router, store: trace.NewBoundedRingStore(ringCapacity, maxEntities),
		norm: &dataprep.Normalizer{Min: lo, Max: hi}, selected: p.SelectedIndicators(),
		model: m, arena: nn.NewInferArena(), x: tensor.New(1, m.Cfg.InChannels, window),
		gemm: newGemmPlan(m.Cfg, 1),
	}, nil
}

func (t *twins) close() { t.router.Close() }

// fill puts CSV bodies into the twin router and the twin ring store.
func (t *twins) fill(bodies [][]byte) error {
	return scanRows(bodies, func(entity []byte, ts int, vals *[trace.NumIndicators]float64) {
		t.router.Ingest(entity, ts, vals)
		t.store.Ingest(entity, ts, vals)
	})
}

// scanRows runs the CSV scanner over bodies and hands every row to row.
func scanRows(bodies [][]byte, row func(entity []byte, ts int, vals *[trace.NumIndicators]float64)) error {
	for _, b := range bodies {
		_, err := trace.ScanCSV(bytes.NewReader(b), func(entity []byte, ts int, vals *[trace.NumIndicators]float64) error {
			row(entity, ts, vals)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// servePipeline is the data pipeline PrepareInput runs on one serving window.
func (t *twins) servePipeline(win [][]float64) [][]float64 {
	sel := dataprep.Select(t.norm.Transform(dataprep.Clean(win)), t.selected)
	return dataprep.ExpandHorizontal(sel, expandFactor)
}

// csvRow is one parsed row, kept so that the layers below the scanner can be
// replayed on what the scanner produced.
type csvRow struct {
	entity []byte
	ts     int
	vals   [trace.NumIndicators]float64
}

// parseRows scans body into rows, reusing rows' buffers.
func parseRows(body []byte, rows []csvRow) ([]csvRow, error) {
	rows = rows[:0]
	err := scanRows([][]byte{body}, func(entity []byte, ts int, vals *[trace.NumIndicators]float64) {
		if len(rows) < cap(rows) {
			rows = rows[:len(rows)+1]
		} else {
			rows = append(rows, csvRow{})
		}
		r := &rows[len(rows)-1]
		r.entity, r.ts, r.vals = append(r.entity[:0], entity...), ts, *vals
	})
	return rows, err
}

// scanOnly runs the CSV scanner over body with a callback that does nothing.
func scanOnly(body []byte) error {
	return scanRows([][]byte{body}, func([]byte, int, *[trace.NumIndicators]float64) {})
}

// gemmPlan holds the matrix products of one forward pass at a batch size,
// with the kernels the layers call: a convolution multiplies its unrolled
// input [in*K x batch*window] (transposed) by its kernel [in*K x out], a
// dense layer multiplies [batch x in] by its weights [out x in] (transposed).
type gemmPlan struct {
	ops   []gemmOp
	flops float64 // multiply-adds counted as two
	bytes float64 // operands read and result written, at 8 B a value
}

type gemmOp struct {
	a, b, dst *tensor.Tensor
	conv      bool
	m, k, n   int
}

func newGemmPlan(cfg core.Config, batch int) *gemmPlan {
	r := tensor.NewRNG(1)
	p := &gemmPlan{}
	add := func(conv bool, m, k, n int) {
		op := gemmOp{conv: conv, m: m, k: k, n: n, dst: tensor.New(m, n)}
		if conv {
			op.a, op.b = tensor.RandN(r, k, m), tensor.RandN(r, k, n)
		} else {
			op.a, op.b = tensor.RandN(r, m, k), tensor.RandN(r, n, k)
		}
		p.ops = append(p.ops, op)
		p.flops += 2 * float64(m) * float64(k) * float64(n)
		p.bytes += 8 * float64(m*k+k*n+m*n)
	}
	in := cfg.InChannels
	for _, out := range cfg.Channels {
		add(true, batch*window, in*cfg.KernelSize, out)
		add(true, batch*window, out*cfg.KernelSize, out)
		if in != out {
			add(true, batch*window, in, out) // the residual's 1x1 convolution
		}
		in = out
	}
	if !cfg.DisableFC {
		add(false, batch, in, cfg.FCWidth)
		in = cfg.FCWidth
	}
	if !cfg.DisableAttention {
		add(false, batch, in, in)
	}
	add(false, batch, in, cfg.Horizon)
	return p
}

func (p *gemmPlan) run() {
	for _, op := range p.ops {
		if op.conv {
			op.a.TMatMulAcc(op.b, op.dst)
		} else {
			op.a.MatMulTInto(op.b, op.dst)
		}
	}
}

// largest returns the product with the most multiply-adds.
func (p *gemmPlan) largest() gemmOp {
	best := p.ops[0]
	for _, op := range p.ops {
		if op.m*op.k*op.n > best.m*best.k*best.n {
			best = op
		}
	}
	return best
}

// sinkWriter is the http.ResponseWriter handler-level calls write to. Unlike
// an httptest.ResponseRecorder it reuses its buffers, so that the harness's
// allocations do not count in server.allocs_per_req.
type sinkWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newSinkWriter() *sinkWriter { return &sinkWriter{header: make(http.Header)} }

func (w *sinkWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

func (w *sinkWriter) Header() http.Header { return w.header }
func (w *sinkWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
