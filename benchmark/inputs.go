package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/trace"
)

// Everything the program under test sees is made here from -seed by
// trace.Generate; nothing below reads a clock or a response.

const (
	window       = 32 // rptcnd -window
	horizon      = 5  // rptcnd -horizon
	expandFactor = 3
	minHistory   = window + expandFactor - 1 // core.Predictor.MinHistory for Mul-Exp
	ringCapacity = 2 * minHistory            // server.IngestConfig's default (at least 64)
	prefill      = 40                        // samples per entity ingested in set-up
	cpu          = int(trace.CPUUtilPercent)

	fleetEntities  = 2048 // entity-read: resident container entities
	postEntities   = 256  // window-post: distinct windows
	chunkEntities  = 256  // ingest-write: entities per CSV chunk
	chunkSamples   = 8    // ingest-write: new samples per entity per chunk
	liveChunks     = 6    // ingest-write: long-lived chunks per tick
	liveEntities   = liveChunks * chunkEntities
	maxEntities    = 2048 // ingest-write: IngestConfig.MaxEntities
	readsPerChunk  = 8    // ingest-write: forecasts after each long-lived chunk
	poolSeries     = 128  // ingest-write: generator series the value text is cut from
	poolSamples    = 2048
	trainSeriesLen = 600 // train-fit: samples per fitted series
	trainSeries    = 128 // train-fit: distinct series generated
	modelSamples   = 2500
	modelEpochs    = 4
)

// Streams keep the generator seeds of one run apart.
const (
	streamFleet = iota + 1
	streamPost
	streamPool
	streamTrain
	streamProbe
)

// subSeed derives the generator seed of one input stream (splitmix64).
func subSeed(seed uint64, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func generate(entities, samples int, seed uint64) []*trace.EntitySeries {
	return trace.Generate(trace.GeneratorConfig{
		Entities: entities, Kind: trace.Container, Samples: samples, Seed: seed,
	})
}

// modelSeries is the series the serving model is fitted on. It is the same
// for every -seed (what `rptcnd -synthetic` trains on with no flags): the
// model is part of the system under test, not of the workload, and a model
// that changed with the seed would make forecast_mae vary between seeds by
// more than any arithmetic change could.
func modelSeries() *trace.EntitySeries { return generate(1, modelSamples, 1)[0] }

// servingConfig is the predictor rptcnd builds with no flags, except for the
// epoch count (4, to keep set-up short) and the hooks, which only log.
func servingConfig() core.PredictorConfig {
	return core.PredictorConfig{
		Scenario: core.MulExp, Window: window, Horizon: horizon, Epochs: modelEpochs, Seed: 1,
		Model: core.Config{
			Channels: []int{16, 16, 16}, KernelSize: 3, Dilations: []int{1, 2, 4},
			Dropout: 0.1, WeightNorm: true, FCWidth: 32,
		},
	}
}

// digest hashes generated inputs in a fixed order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) floats(xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		d.h.Write(buf[:])
	}
}

func (d *digest) series(es []*trace.EntitySeries) {
	for _, e := range es {
		d.bytes([]byte(e.ID))
		for _, m := range e.Metrics {
			d.floats(m)
		}
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// appendRow appends one CSV row in the column order /v1/ingest expects.
// trace.WriteCSV always starts time stamps at 0, so the harness formats its
// own rows to append to a ring that already holds samples.
func appendRow(dst []byte, id string, ts int, e *trace.EntitySeries, t int) []byte {
	dst = append(dst, id...)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(ts), 10)
	for _, m := range e.Metrics { // Metrics is in CSV column order
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, m[t], 'g', -1, 64)
	}
	return append(dst, '\n')
}

// fleetInputs is a set of entities whose first `prefill` samples go into
// rings and whose next `horizon` CPU samples are the truth a forecast from
// those rings is scored against.
type fleetInputs struct {
	entities []*trace.EntitySeries
	chunks   [][]byte // prefill CSV bodies, chunkEntities entities each
	gets     [][]byte // one GET /v1/forecast/{id} request per entity
}

func newFleetInputs(n int, seed uint64) *fleetInputs {
	in := &fleetInputs{entities: generate(n, prefill+horizon, seed)}
	for lo := 0; lo < n; lo += chunkEntities {
		var body []byte
		for _, e := range in.entities[lo:min(lo+chunkEntities, n)] {
			for t := 0; t < prefill; t++ {
				body = appendRow(body, e.ID, t*e.Interval, e, t)
			}
		}
		in.chunks = append(in.chunks, body)
	}
	for _, e := range in.entities {
		in.gets = append(in.gets, getRequest("/v1/forecast/"+e.ID))
	}
	return in
}

func (in *fleetInputs) truth(e int) []float64 {
	return in.entities[e].Metrics[cpu][prefill : prefill+horizon]
}

// ringWindow is the window a forecast from entity e's ring is made from.
func (in *fleetInputs) ringWindow(e int) [][]float64 {
	return samples(in.entities[e], prefill-minHistory, prefill)
}

// samples returns samples [lo, hi) of every indicator of e.
func samples(e *trace.EntitySeries, lo, hi int) [][]float64 {
	w := make([][]float64, trace.NumIndicators)
	for i, m := range e.Metrics {
		w[i] = m[lo:hi]
	}
	return w
}

func (in *fleetInputs) digest(d *digest) {
	d.series(in.entities)
	for _, c := range in.chunks {
		d.bytes(c)
	}
}

// postInputs holds one POST /v1/forecast request per entity: a window of
// minHistory samples by 8 indicators, with the entity and sample time a
// resource manager's control loop would send.
type postInputs struct {
	entities []*trace.EntitySeries
	requests [][]byte
}

func newPostInputs(seed uint64) *postInputs {
	in := &postInputs{entities: generate(postEntities, minHistory+horizon, seed)}
	for _, e := range in.entities {
		var b bytes.Buffer
		b.WriteString(`{"indicators":[`)
		for i, m := range e.Metrics {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('[')
			for t, v := range m[:minHistory] {
				if t > 0 {
					b.WriteByte(',')
				}
				b.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
			}
			b.WriteByte(']')
		}
		fmt.Fprintf(&b, `],"entity":%q,"t":%d}`, e.ID, minHistory-1)
		in.requests = append(in.requests, postRequest("/v1/forecast", "application/json", b.Bytes()))
	}
	return in
}

func (in *postInputs) truth(e int) []float64 {
	return in.entities[e].Metrics[cpu][minHistory : minHistory+horizon]
}

func (in *postInputs) window(e int) [][]float64 { return samples(in.entities[e], 0, minHistory) }

func (in *postInputs) digest(d *digest) {
	d.series(in.entities)
	for _, r := range in.requests {
		d.bytes(r)
	}
}

// ingestInputs builds the write-beside-read traffic. Long-lived entity e
// replays pool series e%poolSeries from its own phase, wrapping at
// poolSamples; the value text of every pool sample is formatted once, so a
// chunk body is assembled by byte copy.
type ingestInputs struct {
	pool  []*trace.EntitySeries
	text  [][][]byte // [series][sample] "v1,...,v8"
	ids   []string   // long-lived entity IDs
	gets  [][]byte   // one GET per long-lived entity
	phase []int
}

func newIngestInputs(seed uint64) *ingestInputs {
	in := &ingestInputs{pool: generate(poolSeries, poolSamples, seed)}
	in.text = make([][][]byte, poolSeries)
	for s, e := range in.pool {
		in.text[s] = make([][]byte, poolSamples)
		for t := range in.text[s] {
			row := appendRow(nil, "", 0, e, t)
			in.text[s][t] = row[len(",0,") : len(row)-1]
		}
	}
	for e := 0; e < liveEntities; e++ {
		id := "c_" + strconv.Itoa(20000+e)
		in.ids = append(in.ids, id)
		in.gets = append(in.gets, getRequest("/v1/forecast/"+id))
		in.phase = append(in.phase, (e/poolSeries)*83%poolSamples)
	}
	return in
}

func (in *ingestInputs) digest(d *digest) {
	d.series(in.pool)
	for _, id := range in.ids {
		d.bytes([]byte(id))
	}
}

// appendLive appends samples [from, from+n) of long-lived entity e.
func (in *ingestInputs) appendLive(dst []byte, e, from, n int) []byte {
	text := in.text[e%poolSeries]
	for j := from; j < from+n; j++ {
		dst = append(dst, in.ids[e]...)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(j*10), 10)
		dst = append(dst, ',')
		dst = append(dst, text[(in.phase[e]+j)%poolSamples]...)
		dst = append(dst, '\n')
	}
	return dst
}

// prefillChunk is the set-up body that gives the entities of long-lived
// chunk c their first `prefill` samples.
func (in *ingestInputs) prefillChunk(c int) []byte {
	var body []byte
	for e := c * chunkEntities; e < (c+1)*chunkEntities; e++ {
		body = in.appendLive(body, e, 0, prefill)
	}
	return body
}

// liveChunk is the body of long-lived chunk c in tick k.
func (in *ingestInputs) liveChunk(dst []byte, k, c int) []byte {
	for e := c * chunkEntities; e < (c+1)*chunkEntities; e++ {
		dst = in.appendLive(dst, e, prefill+k*chunkSamples, chunkSamples)
	}
	return dst
}

// transientChunk is the body of tick k's chunk of entities never seen again:
// the paper's short-lived containers, which keep the LRU evicting.
func (in *ingestInputs) transientChunk(dst []byte, k int) []byte {
	for i := 0; i < chunkEntities; i++ {
		text := in.text[i%poolSeries]
		for j := 0; j < chunkSamples; j++ {
			dst = append(dst, "t_"...)
			dst = strconv.AppendInt(dst, int64(k*chunkEntities+i), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(j*10), 10)
			dst = append(dst, ',')
			dst = append(dst, text[(k+j)%poolSamples]...)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// readEntity is the g-th entity forecast after long-lived chunk c of tick k.
func readEntity(k, c, g int) int {
	return c*chunkEntities + (k*readsPerChunk+g)*37%chunkEntities
}

// samplesAfter is how many samples a long-lived entity holds once tick k's
// chunk for it is in.
func samplesAfter(k int) int { return prefill + (k+1)*chunkSamples }

// span returns pool samples [from, from+n) of entity e for one indicator, or
// nil when the range crosses the pool's wrap, where the series jumps.
func (in *ingestInputs) span(e, ind, from, n int) []float64 {
	lo := (in.phase[e] + from) % poolSamples
	if lo+n > poolSamples {
		return nil
	}
	return in.pool[e%poolSeries].Metrics[ind][lo : lo+n]
}

// truth is what a forecast for entity e made after tick k is scored against,
// or nil when the window or its continuation crosses the pool's wrap.
func (in *ingestInputs) truth(e, k int) []float64 {
	n := samplesAfter(k)
	if in.span(e, cpu, n-minHistory, minHistory+horizon) == nil {
		return nil
	}
	return in.span(e, cpu, n, horizon)
}

// ringWindow is the window entity e's ring holds after tick k, or nil when
// it crosses the pool's wrap.
func (in *ingestInputs) ringWindow(e, k int) [][]float64 {
	w := make([][]float64, trace.NumIndicators)
	for i := range w {
		if w[i] = in.span(e, i, samplesAfter(k)-minHistory, minHistory); w[i] == nil {
			return nil
		}
	}
	return w
}

// trainInputs are the series train-fit fits, one per Fit call.
type trainInputs struct{ series []*trace.EntitySeries }

func newTrainInputs(seed uint64) *trainInputs {
	return &trainInputs{generate(trainSeries, trainSeriesLen, seed)}
}

func (in *trainInputs) digest(d *digest) { d.series(in.series) }

// fitConfig is the per-entity fit FitFleet, Table II cells and adapt
// fine-tunes all do: default RPTCN model, 4 epochs, no early stop, and no
// hook, tracer or profiler (a hook switches on gradient-norm computation
// and changes the work).
func fitConfig(seed uint64) core.PredictorConfig {
	return core.PredictorConfig{
		Scenario: core.MulExp, Window: window, Horizon: horizon,
		BatchSize: 32, Epochs: 4, Patience: 5, Seed: seed,
	}
}

// digestOf hashes one workload's generated inputs.
func digestOf(in interface{ digest(*digest) }) string {
	d := newDigest()
	in.digest(d)
	return d.sum()
}
