package server

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// BenchmarkIngestChunk calls the ingest handler directly with bodies
// shaped like a live monitoring chunk — 256 entities with 8 new samples
// each, values in shortest form — against 2048 resident rings, the
// chunks taking the fleet in turn. runs=8 sends each entity's samples
// together, as a collector posting per container does; runs=1 alternates
// entities row by row, the worst case for grouping rows into runs.
// Timestamps advance every op, so every sample is accepted.
func BenchmarkIngestChunk(b *testing.B) {
	const entities, chunk, samples, prefill = 2048, 256, 8, 64
	p, e := fitted(b)
	ids := make([]string, entities)
	for i := range ids {
		ids[i] = "c_" + strconv.Itoa(20000+i)
	}
	// Sample t of entity i is pool sample (i*83 + t) % len, formatted once.
	pool := make([][]byte, e.Len())
	for t := range pool {
		for ci := 0; ci < trace.NumIndicators; ci++ {
			pool[t] = append(pool[t], ',')
			pool[t] = strconv.AppendFloat(pool[t], e.Metrics[ci][t], 'g', -1, 64)
		}
	}
	row := func(dst []byte, i, t int) []byte {
		dst = append(dst, ids[i]...)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(10*t), 10)
		dst = append(dst, pool[(i*83+t)%len(pool)]...)
		return append(dst, '\n')
	}
	post := func(b *testing.B, s *Server, body []byte) {
		rec := httptest.NewRecorder()
		s.handleIngest(rec, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body)
		}
	}
	for _, runs := range []int{samples, 1} {
		b.Run("runs="+strconv.Itoa(runs), func(b *testing.B) {
			s := New(p, WithRegistry(obs.NewRegistry()), WithIngest(IngestConfig{MaxEntities: entities}))
			defer s.Close()
			var body []byte
			for i := range ids {
				for t := 0; t < prefill; t++ {
					body = row(body, i, t)
				}
			}
			post(b, s, body)
			b.ReportAllocs()
			b.ResetTimer()
			for op := 0; op < b.N; op++ {
				b.StopTimer()
				lo, from := op%(entities/chunk)*chunk, prefill+op/(entities/chunk)*samples
				body = body[:0]
				if runs == 1 {
					for t := from; t < from+samples; t++ {
						for i := lo; i < lo+chunk; i++ {
							body = row(body, i, t)
						}
					}
				} else {
					for i := lo; i < lo+chunk; i++ {
						for t := from; t < from+samples; t++ {
							body = row(body, i, t)
						}
					}
				}
				b.SetBytes(int64(len(body)))
				b.StartTimer()
				post(b, s, body)
			}
		})
	}
}
