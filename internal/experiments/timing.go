package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/train"
)

// TimingRow reports the cost of one RPTCN configuration: parameter count,
// time per training epoch, and per-window inference latency — the study
// the paper's Sec. V-C proposes as future work ("explore the influence of
// TCNs parameters on the running time of this model ... apply the model to
// the real-time resource usage prediction").
//
// The Infer* columns time what serving runs: the grad-free arena forward
// of the published (frozen) model, which computes only the receptive cone
// under the last time step. InferLatency is the mean; InferP50/InferP99
// come from an obs.Histogram over the individual repetitions, because
// real-time serving cares about the tail, not the mean. Training runs
// forward and backward inside the same cone, so EpochTime is its cost too.
type TimingRow struct {
	Label          string
	Params         int
	ReceptiveField int
	EpochTime      time.Duration
	InferLatency   time.Duration
	InferP50       time.Duration
	InferP99       time.Duration
}

// LayerProfile is the per-layer forward/backward cost breakdown of one
// model over a training epoch, captured through nn.Profiler.
type LayerProfile struct {
	Label  string
	Layers []nn.LayerStats
	Table  string // rendered nn.Profiler table
}

// TimingStudy is the collection of measured configurations.
type TimingStudy struct {
	Rows []TimingRow
	// Profiles breaks one training epoch down by layer for the paper's
	// architecture and the LSTM baseline, locating where the per-epoch
	// budget actually goes (conv stack vs heads vs recurrent cell).
	Profiles []LayerProfile
}

// RunTimingStudy measures training and inference cost across kernel sizes,
// dilation depths, and channel widths on a fixed synthetic workload.
func RunTimingStudy(o Options) (*TimingStudy, error) {
	o = o.withDefaults()
	e := Generate1(trace.Container, o)
	p, err := prepareScenario(e, core.MulExp, o)
	if err != nil {
		return nil, err
	}
	study := &TimingStudy{}
	type variant struct {
		label    string
		channels []int
		kernel   int
	}
	variants := []variant{
		{"k=2, 3 blocks x16", []int{16, 16, 16}, 2},
		{"k=3, 3 blocks x16", []int{16, 16, 16}, 3},
		{"k=5, 3 blocks x16", []int{16, 16, 16}, 5},
		{"k=3, 1 block  x16", []int{16}, 3},
		{"k=3, 4 blocks x16", []int{16, 16, 16, 16}, 3},
		{"k=3, 3 blocks x32", []int{32, 32, 32}, 3},
	}
	for vi, v := range variants {
		m := core.NewModel(tensor.NewRNG(o.Seed+uint64(vi)), core.Config{
			InChannels: p.channels,
			Channels:   v.channels,
			KernelSize: v.kernel,
			Dropout:    0.1,
			WeightNorm: true,
			FCWidth:    32,
			Horizon:    o.Horizon,
		})
		row := TimingRow{
			Label:          v.label,
			Params:         nn.ParamCount(m),
			ReceptiveField: m.ReceptiveField(),
		}
		// One timed training epoch.
		cfg := deepTrainConfig(o, o.Seed)
		cfg.Epochs = 1
		cfg.Patience = 0
		start := time.Now()
		train.Fit(m, p.tr, p.va, cfg)
		row.EpochTime = time.Since(start)
		// Inference latency on a single window, as served: freeze the
		// trained model, warm one arena pass, then observe each repetition
		// into a histogram so the table can report the distribution, not
		// just the mean (tail latency is what real-time serving budgets for).
		x := p.te.Subset(0, 1)
		const reps = 50
		nn.Freeze(m)
		arena := nn.NewInferArena()
		m.InferForward(arena, x.X)
		hist := obs.NewHistogram(obs.ExponentialBuckets(1e-6, 2, 26)) // 1 µs .. ~33 s
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			arena.Reset()
			m.InferForward(arena, x.X)
			hist.Observe(time.Since(t0).Seconds())
		}
		row.InferLatency = secondsToDuration(hist.Mean())
		row.InferP50 = secondsToDuration(hist.Quantile(0.5))
		row.InferP99 = secondsToDuration(hist.Quantile(0.99))
		study.Rows = append(study.Rows, row)
	}

	// Per-layer breakdown of one training epoch: the paper's reference
	// RPTCN against the LSTM baseline.
	rptcnProf := nn.NewProfiler()
	rptcn := core.NewModel(tensor.NewRNG(o.Seed), core.Config{
		InChannels: p.channels,
		KernelSize: 3,
		Dropout:    0.1,
		WeightNorm: true,
		FCWidth:    32,
		Horizon:    o.Horizon,
	})
	rptcn.Profile(rptcnProf)
	study.Profiles = append(study.Profiles,
		profileEpoch("RPTCN (k=3, 3 blocks x16)", rptcn, rptcnProf, p, o))

	lstmProf := nn.NewProfiler()
	lstm := models.NewLSTM(tensor.NewRNG(o.Seed), models.LSTMConfig{
		InChannels: p.channels,
		Horizon:    o.Horizon,
	})
	if seq, ok := lstm.(*nn.Sequential); ok {
		lstmProf.WrapSequential(seq)
	}
	study.Profiles = append(study.Profiles,
		profileEpoch("LSTM baseline", lstm, lstmProf, p, o))
	return study, nil
}

// profileEpoch trains model for one epoch with prof's timers attached
// and returns the captured per-layer breakdown.
func profileEpoch(label string, model nn.Layer, prof *nn.Profiler, p *preparedData, o Options) LayerProfile {
	cfg := deepTrainConfig(o, o.Seed)
	cfg.Epochs = 1
	cfg.Patience = 0
	train.Fit(model, p.tr, p.va, cfg)
	return LayerProfile{Label: label, Layers: prof.Stats(), Table: prof.Table()}
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Format renders the timing table.
func (s *TimingStudy) Format() string {
	var b strings.Builder
	b.WriteString("Timing study: RPTCN parameters vs training/inference cost (future work, Sec. V-C)\n")
	fmt.Fprintf(&b, "%-20s %10s %6s %14s %14s %12s %12s\n",
		"variant", "params", "rf", "epoch time", "infer mean", "infer p50", "infer p99")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-20s %10d %6d %14s %14s %12s %12s\n",
			r.Label, r.Params, r.ReceptiveField,
			r.EpochTime.Round(time.Millisecond), r.InferLatency.Round(time.Microsecond),
			r.InferP50.Round(time.Microsecond), r.InferP99.Round(time.Microsecond))
	}
	for _, p := range s.Profiles {
		fmt.Fprintf(&b, "\nPer-layer breakdown, one training epoch: %s\n%s", p.Label, p.Table)
	}
	return b.String()
}
