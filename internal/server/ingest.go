package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"slices"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Streaming trace ingestion: POST /v1/ingest accepts a v2018-style
// usage CSV body and streams it through trace.ScanCSV straight into
// per-entity ring buffers — no per-sample allocation, no intermediate
// record materialization. GET /v1/forecast/{entity} then serves a
// forecast from an entity's ring: the trailing window is read as
// zero-copy views under the entity's lock, run through the stored data
// pipeline, and fused into the same micro-batcher as JSON requests. A
// resource manager can therefore pump raw monitoring streams in and ask
// for per-entity forecasts by name, instead of re-shipping every
// entity's history on every request.

// IngestConfig tunes streaming trace ingestion.
type IngestConfig struct {
	// MaxEntities caps how many entities hold ring state at once; when a
	// new entity arrives at the cap, the least-recently-touched ring is
	// evicted (rptcn_ingest_evicted_entities_total counts them). 0 means
	// unbounded — the pre-cap behavior.
	MaxEntities int
}

// maxIngestBytes bounds one ingest request's body: usage CSVs are long,
// and the scan streams, so memory stays flat.
const maxIngestBytes = 256 << 20

// ringCapacity is how many of its newest samples each entity's ring
// keeps: twice the predictor's MinHistory and at least 64, so a full
// input window plus slack is always on hand, and with adaptation on,
// twice what a retrain needs, so one ring holds a whole training set.
func ringCapacity(p *core.Predictor, ad *adapt.Config) int {
	n := max(64, 2*p.MinHistory())
	if ad != nil {
		n = max(n, 2*ad.EffectiveMinSamples())
	}
	return n
}

// WithIngest overrides the streaming-ingestion parameters.
func WithIngest(cfg IngestConfig) Option {
	return func(s *Server) { s.ingestCfg = cfg }
}

// IngestResponse is the /v1/ingest response body.
type IngestResponse struct {
	// Rows is the number of usable CSV rows parsed.
	Rows int `json:"rows"`
	// Skipped counts unusable rows (ragged, unparsable) dropped by the
	// lenient scanner.
	Skipped int `json:"skipped"`
	// Rejected counts parsed samples the rings refused because their
	// timestamp did not advance the entity's newest sample (replays,
	// duplicates, out-of-order deliveries).
	Rejected int `json:"rejected"`
	// Entities is the total number of entities with ring state.
	Entities int `json:"entities"`
}

// runCap is how many consecutive rows of one entity handleIngest gathers
// before it hands them to the rings as one run.
const runCap = 32

// entityRun gathers consecutive rows of one entity, so the rings take
// them with one lookup and one lock (Router.IngestRun); the ID is copied
// out of the scanner's buffer once per run. Reused across requests.
type entityRun struct {
	id       []byte
	n        int
	rows     [runCap]trace.Sample
	rejected int
}

// freeRuns keeps idle runs for the next requests: one per ingest in
// flight, up to 8, beyond which a request makes its own. It is not a
// sync.Pool, which every collection empties and whose per-CPU slot a
// request on another CPU misses: each miss costs a run and its ID buffer.
var freeRuns = make(chan *entityRun, 8)

func (run *entityRun) add(rt *shard.Router, entity []byte, ts int, vals *[trace.NumIndicators]float64) {
	if run.n == runCap || run.n > 0 && !bytes.Equal(entity, run.id) {
		run.flush(rt)
	}
	if run.n == 0 {
		run.id = append(run.id[:0], entity...)
	}
	run.rows[run.n] = trace.Sample{TS: ts, Vals: *vals}
	run.n++
}

func (run *entityRun) flush(rt *shard.Router) {
	if run.n > 0 {
		run.rejected += rt.IngestRun(run.id, run.rows[:run.n])
		run.n = 0
	}
}

// handleIngest streams the CSV body into the ring store. The body is
// never buffered whole: ScanCSV reads through a pooled 64 KiB window, and
// each entity's consecutive rows reach its ring as one run.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var run *entityRun
	select {
	case run = <-freeRuns:
		run.rejected = 0
	default:
		run = new(entityRun)
	}
	body := http.MaxBytesReader(w, r.Body, maxIngestBytes)
	st, err := trace.ScanCSV(body, func(entity []byte, ts int, vals *[trace.NumIndicators]float64) error {
		run.add(s.rings, entity, ts, vals)
		return nil
	})
	run.flush(s.rings)
	rejected := run.rejected
	select {
	case freeRuns <- run:
	default:
	}
	s.ingestRows.Add(float64(st.Rows))
	s.ingestSkipped.Add(float64(st.Skipped))
	s.ingestRejected.Add(float64(rejected))
	s.ingestEntities.Set(float64(s.rings.Len()))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("ingest body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, IngestResponse{
		Rows:     st.Rows,
		Skipped:  st.Skipped,
		Rejected: rejected,
		Entities: s.rings.Len(),
	})
}

// EntityInfo is one entry of the /v1/entities response.
type EntityInfo struct {
	ID      string `json:"id"`
	Samples int    `json:"samples"`
	LastTS  int    `json:"last_ts"`
}

// handleEntities lists entities with ring state, sorted by ID so the
// listing is deterministic regardless of ingestion or shard order.
// ?limit=N bounds the page size and ?after=<id> resumes strictly after
// an ID; a truncated page carries the X-Next-After header, so a client
// walks a 4000-entity fleet in bounded pages:
//
//	GET /v1/entities?limit=500
//	GET /v1/entities?limit=500&after=<X-Next-After>   ... until the header stops
func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	limit, after, err := parseListParams(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ids := s.rings.Entities() // sorted ascending
	if after != "" {
		lo, _ := slices.BinarySearch(ids, after)
		if lo < len(ids) && ids[lo] == after {
			lo++
		}
		ids = ids[lo:]
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
		w.Header().Set("X-Next-After", ids[len(ids)-1])
	}
	out := make([]EntityInfo, 0, len(ids))
	for _, id := range ids {
		info := EntityInfo{ID: id}
		s.rings.WithWindow(id, s.ringCap, func(win [][]float64, _, lastTS int) {
			info.Samples = len(win[0])
			info.LastTS = lastTS
		})
		out = append(out, info)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleEntityForecast serves GET /v1/forecast/{entity} from the
// entity's ring: it checks the path and the ?model= parameter (a named
// registry model needs WithModelRegistry); serveForecast does the rest.
// The entity's shard leader — this request, or the one whose batch it
// queued into — reads the ring window as zero-copy views under the
// entity's lock and fuses concurrent reads into one forward.
func (s *Server) handleEntityForecast(w http.ResponseWriter, r *http.Request) {
	entity := r.PathValue("entity")
	if entity == "" {
		s.writeError(w, http.StatusBadRequest, "empty entity")
		return
	}
	model := r.URL.Query().Get("model")
	if model != "" && s.modelCache == nil {
		s.writeError(w, http.StatusNotFound, "no model registry configured")
		return
	}
	s.serveForecast(w, r.Context(), entity, model, nil)
}
