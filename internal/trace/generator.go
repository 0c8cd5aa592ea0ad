package trace

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// GeneratorConfig controls the synthetic trace generator.
//
// The generator reproduces the qualitative properties the paper measures
// on the Alibaba v2018 trace:
//
//   - Fig. 1: high-dynamic utilization with no long-run regularity —
//     achieved with a Markov regime process plus bursty spikes.
//   - Fig. 2: mild diurnal periodicity of the fleet mean with wide
//     dispersion — a shared diurnal component with per-entity phase.
//   - Fig. 3: most machines below 50% CPU most of the time — baseline
//     levels drawn from a low-mean distribution.
//   - Fig. 7: cpu, mpki, cpi and mem_gps strongly correlated; the rest
//     weaker — derived indicators couple to CPU with fixed gains plus
//     independent noise.
type GeneratorConfig struct {
	Entities int        // number of machines/containers
	Kind     EntityKind // Machine (smoother, lower mean) or Container (burstier)
	Samples  int        // samples per entity
	Interval int        // seconds between samples (paper: 10)
	Seed     uint64

	// MutationRate is the per-sample probability of a regime shift —
	// the "mutation points" the paper highlights. Defaults per kind.
	MutationRate float64
	// BurstRate is the per-sample probability of a short spike.
	BurstRate float64
	// MissingRate injects NaN samples (network anomalies / interruptions)
	// to exercise the data-cleaning path; 0 disables.
	MissingRate float64
}

func (c *GeneratorConfig) fillDefaults() {
	if c.Entities == 0 {
		c.Entities = 1
	}
	if c.Samples == 0 {
		c.Samples = 2000
	}
	if c.Interval == 0 {
		c.Interval = 10
	}
	if c.MutationRate == 0 {
		if c.Kind == Container {
			c.MutationRate = 0.004
		} else {
			c.MutationRate = 0.002
		}
	}
	if c.BurstRate == 0 {
		if c.Kind == Container {
			c.BurstRate = 0.01
		} else {
			c.BurstRate = 0.004
		}
	}
}

// Generate produces a fleet of synthetic entity series. Each entity's
// random stream is split off the root in entity order first, so the
// entities can then be generated on the worker pool and still come out
// bit for bit as a sequential loop would produce them.
func Generate(cfg GeneratorConfig) []*EntitySeries {
	cfg.fillDefaults()
	root := tensor.NewRNG(cfg.Seed)
	rngs := make([]*tensor.RNG, cfg.Entities)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	out := make([]*EntitySeries, cfg.Entities)
	par.Run(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = generateEntity(cfg, i, rngs[i])
		}
	})
	return out
}

// regime is a latent utilization level the entity dwells in.
type regime struct {
	level float64
}

func generateEntity(cfg GeneratorConfig, idx int, rng *tensor.RNG) *EntitySeries {
	e := &EntitySeries{
		ID:       fmt.Sprintf("%c_%d", kindPrefix(cfg.Kind), 10000+idx),
		Kind:     cfg.Kind,
		Interval: cfg.Interval,
	}
	for i := range e.Metrics {
		e.Metrics[i] = make([]float64, cfg.Samples)
	}

	// Entity-specific parameters. Machines skew low (Fig. 3: >80% of
	// machines under 50% CPU); containers are more varied and dynamic.
	var base, diurnalAmp, noiseStd, regimeSpread float64
	if cfg.Kind == Machine {
		base = 18 + 22*rng.Float64() // 18–40%
		diurnalAmp = 4 + 6*rng.Float64()
		noiseStd = 1.2
		regimeSpread = 14
	} else {
		base = 15 + 35*rng.Float64() // 15–50%
		diurnalAmp = 3 + 9*rng.Float64()
		noiseStd = 2.2
		regimeSpread = 22
	}
	phase := 2 * math.Pi * rng.Float64()
	dayPeriod := 86400.0 / float64(cfg.Interval) // samples per day

	reg := regime{level: 0}
	ar := 0.0 // AR(1) noise state
	const arPhi = 0.85

	burstLeft := 0
	burstHeight := 0.0

	// Indicator-specific noise generators (independent streams).
	rMem := rng.Split()
	rNet := rng.Split()
	rDisk := rng.Split()
	rCouple := rng.Split()

	memBase := 35 + 35*rng.Float64() // memory util runs higher and smoother
	memDrift := 0.0

	for t := 0; t < cfg.Samples; t++ {
		// Regime shifts create the abrupt mutation points of Fig. 1/8.
		if rng.Float64() < cfg.MutationRate {
			reg.level = regimeSpread * (2*rng.Float64() - 1)
		}
		// Short bursts (co-location interference).
		if burstLeft == 0 && rng.Float64() < cfg.BurstRate {
			burstLeft = 3 + rng.Intn(12)
			burstHeight = 8 + 25*rng.Float64()
		}
		burst := 0.0
		if burstLeft > 0 {
			burst = burstHeight
			burstLeft--
		}

		diurnal := diurnalAmp * math.Sin(2*math.Pi*float64(t)/dayPeriod+phase)
		ar = arPhi*ar + noiseStd*rng.NormFloat64()

		cpu := clamp(base+diurnal+reg.level+burst+ar, 0.5, 100)
		e.Metrics[CPUUtilPercent][t] = cpu

		// cpuN in [0,1] drives the coupled microarchitectural indicators.
		cpuN := cpu / 100

		// MPKI rises with utilization (cache pressure); strong coupling.
		e.Metrics[MPKI][t] = clamp(0.5+9*cpuN+0.35*rCouple.NormFloat64(), 0, 20)
		// CPI rises with contention; strong coupling.
		e.Metrics[CPI][t] = clamp(0.8+1.6*cpuN+0.08*rCouple.NormFloat64(), 0.4, 4)
		// Memory bandwidth follows CPU activity; strong coupling.
		e.Metrics[MemGPS][t] = clamp(0.05+0.8*cpuN+0.04*rCouple.NormFloat64(), 0, 1)

		// Memory utilization: slow random walk, weak coupling to CPU.
		memDrift = 0.995*memDrift + 0.25*rMem.NormFloat64()
		e.Metrics[MemUtilPercent][t] = clamp(memBase+memDrift+6*cpuN, 1, 100)

		// Network: moderate coupling plus own bursts.
		netNoise := 0.07 * rNet.NormFloat64()
		e.Metrics[NetIn][t] = clamp(0.1+0.35*cpuN+netNoise, 0, 1)
		e.Metrics[NetOut][t] = clamp(0.08+0.3*cpuN+0.07*rNet.NormFloat64(), 0, 1)

		// Disk I/O: weak coupling, occasionally saturating.
		e.Metrics[DiskIOPercent][t] = clamp(5+20*cpuN+8*rDisk.NormFloat64(), 0, 100)

		if cfg.MissingRate > 0 && rng.Float64() < cfg.MissingRate {
			for i := range e.Metrics {
				e.Metrics[i][t] = math.NaN()
			}
		}
	}
	return e
}

func kindPrefix(k EntityKind) byte {
	if k == Machine {
		return 'm'
	}
	return 'c'
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// GenerateWithMutation produces a single entity whose CPU series contains
// one large deterministic step change at sample mutationAt — the Fig. 8
// scenario ("CPU utilization increases abruptly after the 350th sampling
// point, then maintains a high utilization").
func GenerateWithMutation(samples, mutationAt int, seed uint64) *EntitySeries {
	return GenerateWithMutations(samples, []int{mutationAt}, seed)
}

// GenerateWithMutations produces a single entity with deterministic
// regime toggles at the given sample points (strictly increasing): each
// point flips a +35-CPU-point offset on or off, so consecutive points
// yield a high segment followed by a return to baseline — the ground
// truth for detector validation (the segments between points are
// stationary apart from the generator's own mild dynamics). Points at
// or past the ends are ignored.
func GenerateWithMutations(samples int, at []int, seed uint64) *EntitySeries {
	cfg := GeneratorConfig{
		Entities: 1, Kind: Machine, Samples: samples, Seed: seed,
		MutationRate: 0.0001, BurstRate: 0.002,
	}
	e := Generate(cfg)[0]
	// Superimpose the steps: +35 CPU points while the offset is on, with
	// the coupled indicators following through the generator's own gains.
	offset := false
	next := 0
	for t := 0; t < samples; t++ {
		for next < len(at) && at[next] == t {
			if at[next] > 0 {
				offset = !offset
			}
			next++
		}
		if !offset {
			continue
		}
		cpu := clamp(e.Metrics[CPUUtilPercent][t]+35, 0.5, 100)
		delta := (cpu - e.Metrics[CPUUtilPercent][t]) / 100
		e.Metrics[CPUUtilPercent][t] = cpu
		e.Metrics[MPKI][t] = clamp(e.Metrics[MPKI][t]+9*delta, 0, 20)
		e.Metrics[CPI][t] = clamp(e.Metrics[CPI][t]+1.6*delta, 0.4, 4)
		e.Metrics[MemGPS][t] = clamp(e.Metrics[MemGPS][t]+0.8*delta, 0, 1)
	}
	return e
}
