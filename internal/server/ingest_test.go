package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// ingestCSV posts the entities' CSV serialization to /v1/ingest and
// returns the decoded response.
func ingestCSV(t *testing.T, url string, entities []*trace.EntitySeries) IngestResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, entities); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/ingest", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// TestIngestAndEntityForecast pins the streaming path end to end: CSV in
// via /v1/ingest, per-entity ring state visible on /v1/entities, and a
// /v1/forecast/{entity} answer bitwise identical to POSTing the same
// trailing window through the JSON path (both run the same pipeline and
// the same micro-batcher).
func TestIngestAndEntityForecast(t *testing.T) {
	p, e := fitted(t)
	srv := New(p)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ir := ingestCSV(t, ts.URL, []*trace.EntitySeries{e})
	if ir.Rows != e.Len() || ir.Skipped != 0 || ir.Rejected != 0 || ir.Entities != 1 {
		t.Fatalf("ingest response = %+v (want %d clean rows, 1 entity)", ir, e.Len())
	}

	// Entity listing reflects ring state: the ring keeps the most recent
	// RingCapacity of the e.Len() ingested samples.
	resp, err := http.Get(ts.URL + "/v1/entities")
	if err != nil {
		t.Fatal(err)
	}
	var ents []EntityInfo
	if err := json.NewDecoder(resp.Body).Decode(&ents); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantSamples := srv.ringCap
	if e.Len() < wantSamples {
		wantSamples = e.Len()
	}
	if len(ents) != 1 || ents[0].ID != e.ID || ents[0].Samples != wantSamples {
		t.Fatalf("entities = %+v (want %s with %d samples)", ents, e.ID, wantSamples)
	}

	// Entity forecast == JSON forecast over the same trailing window.
	resp, err = http.Get(ts.URL + "/v1/forecast/" + e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("entity forecast status = %d", resp.StatusCode)
	}
	var got ForecastResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Degraded || len(got.Forecast) != p.Cfg.Horizon {
		t.Fatalf("entity forecast = %+v", got)
	}

	need := p.MinHistory()
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		s := e.Metrics[i]
		tail[i] = s[len(s)-need:]
	}
	resp = forecastReq(t, ts.URL, ForecastRequest{Indicators: tail})
	var want ForecastResponse
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for k := range want.Forecast {
		if got.Forecast[k] != want.Forecast[k] {
			t.Fatalf("step %d: ring-backed %g != JSON-path %g", k, got.Forecast[k], want.Forecast[k])
		}
	}
}

// TestIngestRejectsReplays pins the monotonicity gate: re-ingesting the
// same CSV rejects every sample (timestamps do not advance) without
// disturbing ring state.
func TestIngestRejectsReplays(t *testing.T) {
	p, e := fitted(t)
	srv := New(p)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ingestCSV(t, ts.URL, []*trace.EntitySeries{e})
	ir := ingestCSV(t, ts.URL, []*trace.EntitySeries{e})
	if ir.Rows != e.Len() || ir.Rejected != e.Len() || ir.Entities != 1 {
		t.Fatalf("replay ingest = %+v (want all %d rows rejected)", ir, e.Len())
	}
	if n := srv.rings.SampleCount(e.ID); n != srv.ringCap {
		t.Fatalf("ring disturbed by replay: %d samples", n)
	}
}

// TestEntityForecastErrors pins the client-error surface of the ring
// route: unknown entities are 404, and an entity with too little history
// is a 422 (the pipeline's short-history error through inferBadInput).
func TestEntityForecastErrors(t *testing.T) {
	p, e := fitted(t)
	srv := New(p)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/forecast/no-such-entity")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown entity status = %d", resp.StatusCode)
	}

	// Two samples is far below MinHistory: known entity, unusable window.
	var vals [trace.NumIndicators]float64
	for i := range vals {
		vals[i] = e.Metrics[i][0]
	}
	srv.rings.IngestString(e.ID, 0, &vals)
	srv.rings.IngestString(e.ID, 10, &vals)
	resp, err = http.Get(ts.URL + "/v1/forecast/" + e.ID)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short history status = %d (%s)", resp.StatusCode, eb.Error)
	}
	if !strings.Contains(eb.Error, "samples") {
		t.Fatalf("unexpected error body: %q", eb.Error)
	}
}

// TestIngestMalformedBody checks a fully unusable body is a 400 with the
// scanner's accounting intact.
func TestIngestMalformedBody(t *testing.T) {
	p, _ := fitted(t)
	ts := httptest.NewServer(New(p))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv",
		strings.NewReader("not,a,trace\nstill,not,one\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest status = %d", resp.StatusCode)
	}
}

// TestIngestRunsMatchPerRowIngest holds the handler's entity runs to
// per-row RingStore.Ingest. A generated stream of CSV bodies — entities
// interleaved row by row and in runs longer than the run buffer, replays,
// out-of-order timestamps, and a newcomer that makes the bounded store
// evict — goes through /v1/ingest on one side and row by row into a
// reference store of the same ring capacity and entity cap on the other.
// After every body the rejected count, the evictions and their victim
// must agree; at the end every ring's window, newest timestamp and total
// must. A body names at most one newcomer, last, so it evicts at most
// once and the victims compare in order.
func TestIngestRunsMatchPerRowIngest(t *testing.T) {
	const maxEnt, names, posts = 6, 14, 300
	p, _ := fitted(t)
	srv := New(p, WithRegistry(obs.NewRegistry()), WithIngest(IngestConfig{MaxEntities: maxEnt}))
	defer srv.Close()
	ref := trace.NewBoundedRingStore(srv.ringCap, maxEnt)

	seed := uint64(7)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed >> 33 % uint64(n))
	}
	next := map[string]int{} // the timestamp an advancing row of the name gets
	var body []byte
	var refVictims, srvVictims []string
	row := func(id string, replay bool) (rejected int) {
		ts := next[id]
		// Totals stay below capacity, so a ring's length is its total.
		// SampleCount reads it without touching the LRU.
		if replay || ref.SampleCount(id) >= srv.ringCap-1 {
			ts -= 10 * (1 + rnd(4))
		} else if rnd(10) == 0 {
			ts += 10 // ahead; the next row of id arrives out of order
		} else {
			next[id] += 10
		}
		var vals [trace.NumIndicators]float64
		body = append(body, id...)
		body = append(body, ',')
		body = strconv.AppendInt(body, int64(ts), 10)
		for i := range vals {
			vals[i] = float64(rnd(1<<20)) / float64(1+rnd(997))
			body = append(body, ',')
			body = strconv.AppendFloat(body, vals[i], 'g', -1, 64)
		}
		body = append(body, '\n')
		before, evicted := ref.Entities(), ref.Evicted()
		if !ref.Ingest([]byte(id), ts, &vals) {
			rejected++
		}
		if ref.Evicted() != evicted {
			refVictims = append(refVictims, missing(before, ref.Entities())...)
		}
		return rejected
	}
	for post := 0; post < posts; post++ {
		body = body[:0]
		rejected := 0
		known := ref.Entities()
		if n := len(known); n > 0 {
			// Up to 3 known entities, interleaved: a row stays with the
			// previous row's entity 3 times in 4, so runs run from 1 row
			// to several run buffers.
			pick := known[rnd(n)]
			for k, rows := 0, rnd(3*runCap); k < rows; k++ {
				if rnd(4) == 0 {
					pick = known[rnd(min(n, 3))]
				}
				rejected += row(pick, rnd(8) == 0)
			}
		}
		if rnd(2) == 0 {
			id := "e" + strconv.Itoa(rnd(names))
			if ref.SampleCount(id) == 0 {
				for k, rows := 0, 1+rnd(runCap+8); k < rows; k++ {
					rejected += row(id, rnd(8) == 0)
				}
			}
		}
		if len(body) == 0 {
			continue
		}
		before := srv.rings.Entities()
		rec := httptest.NewRecorder()
		srv.handleIngest(rec, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body)))
		var ir IngestResponse
		if err := json.NewDecoder(rec.Body).Decode(&ir); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("post %d: status %d, %v", post, rec.Code, err)
		}
		gone := missing(before, srv.rings.Entities())
		srvVictims = append(srvVictims, gone...)
		if ir.Rejected != rejected || srv.rings.Evicted() != ref.Evicted() || len(gone) > 1 {
			t.Fatalf("post %d: rejected %d, evicted %d (%v); per row %d, %d", post,
				ir.Rejected, srv.rings.Evicted(), gone, rejected, ref.Evicted())
		}
	}
	if ref.Evicted() < 20 || !slices.Equal(srvVictims, refVictims) {
		t.Fatalf("victims %v, per row %v", srvVictims, refVictims)
	}
	ids := ref.Entities()
	slices.Sort(ids)
	if got := srv.rings.Entities(); !slices.Equal(got, ids) {
		t.Fatalf("entities %v, per row %v", got, ids)
	}
	type state struct {
		win            [][]float64
		interval, last int
	}
	snap := func(src trace.RingSource, id string) (s state) {
		src.WithWindow(id, srv.ringCap, func(win [][]float64, interval, last int) {
			for _, w := range win {
				s.win = append(s.win, slices.Clone(w))
			}
			s.interval, s.last = interval, last
		})
		return s
	}
	for _, id := range ids {
		got, want := snap(srv.rings, id), snap(ref, id)
		ref.WithSlot(id, 1, func(_ [][]float64, total int, _ *any) {
			if total != len(want.win[0]) {
				t.Fatalf("%s: window %d samples, total %d", id, len(want.win[0]), total)
			}
		})
		if got.interval != want.interval || got.last != want.last || len(got.win[0]) != len(want.win[0]) {
			t.Fatalf("%s: %d samples, interval %d, last %d; per row %d, %d, %d", id,
				len(got.win[0]), got.interval, got.last, len(want.win[0]), want.interval, want.last)
		}
		for i := range want.win {
			for k, v := range want.win[i] {
				if math.Float64bits(got.win[i][k]) != math.Float64bits(v) {
					t.Fatalf("%s: indicator %d sample %d: %v, per row %v", id, i, k, got.win[i][k], v)
				}
			}
		}
	}
}

// missing lists the IDs of before that after lacks, in before's order.
func missing(before, after []string) []string {
	var out []string
	for _, id := range before {
		if !slices.Contains(after, id) {
			out = append(out, id)
		}
	}
	return out
}
