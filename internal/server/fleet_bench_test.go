package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/trace"
)

// BenchmarkForecastTelemetry measures the end-to-end serving cost of one
// forecast request with the full fleet-telemetry stack on (sketches +
// exemplars + tail-sampled tracing) versus everything off, cycling
// through 2000 distinct entities. The stack costs 10–20 µs and 10
// allocations a request (the sketches are O(100ns); the span is the
// rest) — under 1% while a lone request waited out a 2 ms gather delay,
// 5–12% of the ~0.15 ms it takes without one (EXPERIMENTS.md has the
// runs). sketch_bytes reports the live sketch
// footprint after the run — O(K), not O(entities).
func BenchmarkForecastTelemetry(b *testing.B) {
	const entities = 2000
	p, e := fitted(b)
	tail := make([][]float64, trace.NumIndicators)
	for i := range tail {
		m := e.Metrics[i]
		tail[i] = m[len(m)-64:]
	}
	// Pre-marshal one request body per entity; the loop only serves.
	bodies := make([]string, entities)
	for i := range bodies {
		tt := int64(1000 + i)
		raw, err := json.Marshal(ForecastRequest{
			Indicators: tail, Entity: fmt.Sprintf("m_%d", i), T: &tt,
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = string(raw)
	}

	run := func(b *testing.B, s *Server) {
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/forecast", strings.NewReader(bodies[i%entities]))
			s.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status = %d: %s", rec.Code, rec.Body)
			}
		}
		b.StopTimer()
		if s.fleet != nil {
			b.ReportMetric(float64(s.fleet.Footprint()), "sketch_bytes")
		}
	}

	b.Run("telemetry=off", func(b *testing.B) {
		run(b, New(p, WithRegistry(obs.NewRegistry()),
			WithFleetTelemetry(FleetConfig{Disabled: true})))
	})
	b.Run("telemetry=on", func(b *testing.B) {
		tr := obstrace.New(256)
		tr.SetEnabled(true)
		tr.SetTailSampling(&obstrace.TailSampleConfig{KeepEvery: 10})
		run(b, New(p, WithRegistry(obs.NewRegistry()), WithTracer(tr),
			WithFleetTelemetry(FleetConfig{K: 32})))
	})
}
