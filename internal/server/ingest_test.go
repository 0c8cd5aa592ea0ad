package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
