package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/trace"
)

// getForecast fetches GET /v1/forecast/{entity}[?model=] and decodes it.
func getForecast(t *testing.T, url, entity, model string) (ForecastResponse, int) {
	t.Helper()
	u := url + "/v1/forecast/" + entity
	if model != "" {
		u += "?model=" + model
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ForecastResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// TestShardedServingMatchesSingleShard pins the acceptance contract of
// sharding: the same fleet served by a 4-shard server (an engine per
// shard over one shared model) answers exactly what the default 1-shard
// server answers, entity by entity, under concurrent
// load. Run with -race this also exercises the per-shard single-owner
// discipline end to end through HTTP.
func TestShardedServingMatchesSingleShard(t *testing.T) {
	p, _ := fitted(t)
	entities := trace.Generate(trace.GeneratorConfig{
		Entities: 12, Kind: trace.Container, Samples: 80, Seed: 5,
	})

	single := httptest.NewServer(New(p))
	defer single.Close()
	srv := New(p, WithSharding(ShardConfig{Shards: 4}))
	sharded := httptest.NewServer(srv)
	defer sharded.Close()

	ingestCSV(t, single.URL, entities)
	ingestCSV(t, sharded.URL, entities)

	want := make(map[string]ForecastResponse, len(entities))
	for _, e := range entities {
		out, code := getForecast(t, single.URL, e.ID, "")
		if code != http.StatusOK || out.Degraded {
			t.Fatalf("single-shard forecast %s: code %d, %+v", e.ID, code, out)
		}
		want[e.ID] = out
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < len(entities); j++ {
				e := entities[(i+j)%len(entities)]
				out, code := getForecast(t, sharded.URL, e.ID, "")
				if code != http.StatusOK {
					t.Errorf("sharded forecast %s: code %d", e.ID, code)
					return
				}
				ref := want[e.ID]
				if len(out.Forecast) != len(ref.Forecast) {
					t.Errorf("sharded forecast %s: %d steps vs %d", e.ID, len(out.Forecast), len(ref.Forecast))
					return
				}
				for k := range ref.Forecast {
					if out.Forecast[k] != ref.Forecast[k] {
						t.Errorf("entity %s step %d: sharded %g != single %g",
							e.ID, k, out.Forecast[k], ref.Forecast[k])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()

	// /debug/shards reflects the spread: 4 shards, all entities owned,
	// every request accounted, queues drained.
	resp, err := http.Get(sharded.URL + "/debug/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ShardsStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("shards status = %+v", st)
	}
	if st.Entities != len(entities) {
		t.Fatalf("status entities = %d, want %d", st.Entities, len(entities))
	}
	var served uint64
	for _, sh := range st.PerShard {
		served += sh.Requests
		if sh.QueueDepth != 0 {
			t.Fatalf("shard %d queue not drained: %+v", sh.Shard, sh)
		}
	}
	if wantServed := uint64(8 * len(entities)); served != wantServed {
		t.Fatalf("per-shard request total = %d, want %d", served, wantServed)
	}
}

// TestEntitiesPagination pins the /v1/entities listing contract: sorted
// IDs, ?limit= pages with X-Next-After continuation, a full walk
// recovers the whole fleet exactly once, and a bad limit is a 400.
func TestEntitiesPagination(t *testing.T) {
	p, _ := fitted(t)
	entities := trace.Generate(trace.GeneratorConfig{
		Entities: 23, Kind: trace.Container, Samples: 10, Seed: 6,
	})
	srv := New(p, WithSharding(ShardConfig{Shards: 3}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ingestCSV(t, ts.URL, entities)

	page := func(limit int, after string) ([]EntityInfo, string) {
		u := fmt.Sprintf("%s/v1/entities?limit=%d", ts.URL, limit)
		if after != "" {
			u += "&after=" + after
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("entities page status = %d", resp.StatusCode)
		}
		var out []EntityInfo
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out, resp.Header.Get("X-Next-After")
	}

	var walked []string
	after := ""
	pages := 0
	for {
		out, next := page(5, after)
		for _, e := range out {
			walked = append(walked, e.ID)
			if e.Samples == 0 {
				t.Fatalf("entity %s listed with no samples", e.ID)
			}
		}
		pages++
		if next == "" {
			break
		}
		if len(out) != 5 {
			t.Fatalf("truncated page has %d entries with continuation set", len(out))
		}
		after = next
	}
	if pages != 5 {
		t.Fatalf("walk took %d pages, want 5 (4×5 + 3)", pages)
	}
	if len(walked) != len(entities) {
		t.Fatalf("walk found %d entities, want %d", len(walked), len(entities))
	}
	seen := map[string]bool{}
	for i, id := range walked {
		if seen[id] {
			t.Fatalf("entity %s listed twice", id)
		}
		seen[id] = true
		if i > 0 && walked[i-1] >= id {
			t.Fatalf("listing not sorted: %s before %s", walked[i-1], id)
		}
	}

	// Unpaginated listing still returns the whole (sorted) fleet — the
	// pre-pagination contract.
	all, next := page(0, "")
	if len(all) != len(entities) || next != "" {
		t.Fatalf("limit=0 returned %d entities, continuation %q", len(all), next)
	}

	resp, err := http.Get(ts.URL + "/v1/entities?limit=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", resp.StatusCode)
	}
}

// TestModelRegistryServing pins the multi-model path through HTTP: a
// published registry model serves via ?model=, the default path is
// untouched, an unknown model is a 404, and the cache warms (hit on the
// second request).
func TestModelRegistryServing(t *testing.T) {
	p, e := fitted(t)
	alt, _ := fitted(t) // same fixture → same weights; identity checked via plumbing, not values
	st, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("alt", alt); err != nil {
		t.Fatal(err)
	}
	cache := registry.NewCache(st, 2)
	srv := New(p, WithSharding(ShardConfig{Shards: 2}), WithModelRegistry(cache))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ingestCSV(t, ts.URL, []*trace.EntitySeries{e})

	out, code := getForecast(t, ts.URL, e.ID, "alt")
	if code != http.StatusOK {
		t.Fatalf("named-model forecast status = %d", code)
	}
	if out.Model != "alt" || len(out.Forecast) == 0 {
		t.Fatalf("named-model response = %+v", out)
	}
	if _, code = getForecast(t, ts.URL, e.ID, "alt"); code != http.StatusOK {
		t.Fatalf("second named-model forecast status = %d", code)
	}
	cs := cache.Stats()
	if cs.Misses != 1 || cs.Hits < 1 {
		t.Fatalf("cache stats after two requests = %+v (want 1 load, then hits)", cs)
	}

	if _, code = getForecast(t, ts.URL, e.ID, "ghost"); code != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", code)
	}
	// Default path unaffected by the registry option.
	if _, code = getForecast(t, ts.URL, e.ID, ""); code != http.StatusOK {
		t.Fatalf("default forecast status = %d", code)
	}

	// Without a registry, naming a model is a 404.
	bare := httptest.NewServer(New(p))
	defer bare.Close()
	ingestCSV(t, bare.URL, []*trace.EntitySeries{e})
	if _, code = getForecast(t, bare.URL, e.ID, "alt"); code != http.StatusNotFound {
		t.Fatalf("model param without registry = %d, want 404", code)
	}
}

// shardsStatus fetches GET /debug/shards.
func shardsStatus(t *testing.T, url string) ShardsStatus {
	t.Helper()
	resp, err := http.Get(url + "/debug/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ShardsStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestForecastPostSharded pins POST /v1/forecast on a 4-shard server:
// every answer is bitwise the 1-shard answer, anonymous requests run on
// more than one shard's engine, a request naming an entity runs on the
// shard that owns that entity's ring, and the generation in the response
// follows a hot-swap and its rollback on every engine.
func TestForecastPostSharded(t *testing.T) {
	p, e := fitted(t)
	quiet := []Option{WithRegistry(obs.NewRegistry()), quiet}
	one := New(p, quiet...)
	defer one.Close()
	single := httptest.NewServer(one)
	defer single.Close()
	srv := New(p, append(quiet, WithSharding(ShardConfig{Shards: 4}))...)
	defer srv.Close()
	sharded := httptest.NewServer(srv)
	defer sharded.Close()

	tail := tailOf(e, p.MinHistory())
	post := func(url, entity string) ForecastResponse {
		t.Helper()
		resp := forecastReq(t, url, ForecastRequest{Indicators: tail, Entity: entity})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST status %d", resp.StatusCode)
		}
		out := decodeForecast(t, resp)
		if out.Degraded {
			t.Fatalf("POST served degraded: %+v", out)
		}
		return out
	}
	want := post(single.URL, "")

	// Anonymous: same bits, more than one shard.
	for i := 0; i < 8; i++ {
		if out := post(sharded.URL, ""); out.Generation != 1 || !slices.Equal(out.Forecast, want.Forecast) {
			t.Fatalf("anonymous POST %d on 4 shards = %+v, 1-shard answer %+v", i, out, want)
		}
	}
	busy := 0
	for _, sh := range shardsStatus(t, sharded.URL).PerShard {
		if sh.Requests > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("8 anonymous POSTs all ran on %d shard", busy)
	}

	// Named: the shard that holds the entity's ring is shardOf(entity).
	ingestCSV(t, sharded.URL, []*trace.EntitySeries{e})
	before := shardsStatus(t, sharded.URL).PerShard
	for i := 0; i < 5; i++ {
		if out := post(sharded.URL, e.ID); !slices.Equal(out.Forecast, want.Forecast) {
			t.Fatalf("named POST on 4 shards = %+v, 1-shard answer %+v", out, want)
		}
	}
	for i, sh := range shardsStatus(t, sharded.URL).PerShard {
		wantDelta := uint64(0)
		if sh.Entities == 1 {
			wantDelta = 5
		}
		if d := sh.Requests - before[i].Requests; d != wantDelta {
			t.Fatalf("shard %d (owns %d entities) served %d of the named POSTs, want %d",
				sh.Shard, sh.Entities, d, wantDelta)
		}
	}

	// Generation: swap to a candidate, then roll back. Four anonymous
	// POSTs visit all four engines.
	cand, eval, _, err := p.FineTune(e.Matrix(), core.FineTuneConfig{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev, prevEval, gen, err := p.SwapModel(cand, eval)
	if err != nil || gen != 2 {
		t.Fatalf("swap: gen=%d err=%v", gen, err)
	}
	swapped := post(single.URL, "")
	if swapped.Generation != 2 || slices.Equal(swapped.Forecast, want.Forecast) {
		t.Fatalf("1-shard answer after the swap = %+v (generation 1 answered %v)", swapped, want.Forecast)
	}
	for i := 0; i < 4; i++ {
		if out := post(sharded.URL, ""); out.Generation != 2 || !slices.Equal(out.Forecast, swapped.Forecast) {
			t.Fatalf("shard answer after the swap = %+v, want %+v", out, swapped)
		}
	}
	if _, _, gen, err = p.SwapModel(prev, prevEval); err != nil || gen != 3 {
		t.Fatalf("rollback: gen=%d err=%v", gen, err)
	}
	for i := 0; i < 4; i++ {
		if out := post(sharded.URL, ""); out.Generation != 3 || !slices.Equal(out.Forecast, want.Forecast) {
			t.Fatalf("shard answer after the rollback = %+v, want generation 3 of %v", out, want.Forecast)
		}
	}
}

// TestForecastPostCaughtByShutdownIs503: a POST queued behind a forward
// when the server closes is told the server is going away (503) — not
// that its payload was bad (422) — and the breaker is not charged.
func TestForecastPostCaughtByShutdownIs503(t *testing.T) {
	p, e := fitted(t)
	reg := obs.NewRegistry()
	srv := New(p, WithRegistry(reg), quiet)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Block the engine: the first forward sleeps inside the model.
	inj := fault.NewInjector(fault.Rule{Scope: "model.forward", Kind: fault.KindLatency,
		Latency: 300 * time.Millisecond, Times: 1})
	defer fault.Activate(inj)()

	raw, err := json.Marshal(ForecastRequest{Indicators: tailOf(e, 64)})
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 2)
	send := func() {
		resp, err := http.Post(ts.URL+"/v1/forecast", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go send()
	waitFor(t, "the first POST to enter the forward", func() bool { return inj.Fired("model.forward") == 1 })
	go send()
	depth := reg.Gauge("rptcn_shard_queue_depth", "", obs.L("shard", "0"))
	waitFor(t, "the second POST to queue behind it", func() bool { return depth.Value() == 1 })

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	got := []int{<-codes, <-codes}
	slices.Sort(got)
	if !slices.Equal(got, []int{http.StatusOK, http.StatusServiceUnavailable}) {
		t.Fatalf("statuses across Close = %v, want the forward in flight answered 200 and the queued one 503", got)
	}
	srv.breaker.mu.Lock()
	failures := srv.breaker.failures
	srv.breaker.mu.Unlock()
	if failures != 0 {
		t.Fatalf("a request caught by shutdown charged the breaker (%d failures)", failures)
	}
	if got := counterVal(reg, "rptcn_panics_recovered_total"); got != 0 {
		t.Fatalf("shutdown counted %g recovered panics", got)
	}
}
