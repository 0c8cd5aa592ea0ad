package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/quality"
	"repro/internal/server"
	"repro/internal/train"
)

// fitServingModel fits the model every serving workload forecasts with.
func fitServingModel() (*core.Predictor, error) {
	cfg := servingConfig()
	cfg.Guard = train.GuardConfig{Enabled: true} // rptcnd -guard defaults to true
	p := core.NewPredictor(cfg)
	if err := p.Fit(modelSeries().Matrix(), cpu); err != nil {
		return nil, fmt.Errorf("fit serving model: %w", err)
	}
	return p, nil
}

// fixture is the real serving stack on a loopback listener: server.New with
// the option values rptcnd passes when it is given no flags, inside an
// http.Server with rptcnd's timeouts. Metrics go to a registry of the
// fixture's own, so two fixtures in one process do not share counters.
type fixture struct {
	pred *core.Predictor
	srv  *server.Server
	reg  *obs.Registry
	addr string

	hs     *http.Server
	served chan error
}

// fixtureOptions are the only settings a workload or probe changes.
type fixtureOptions struct {
	maxEntities int                // IngestConfig.MaxEntities; rptcnd's default 0 is unbounded
	fleet       server.FleetConfig // rptcnd: K 32
	tracer      *obstrace.Tracer   // rptcnd: the default tracer, disabled
}

func defaultFixtureOptions() fixtureOptions {
	return fixtureOptions{fleet: server.FleetConfig{K: 32}, tracer: obstrace.New(obstrace.DefaultRingSize)}
}

func newFixture(p *core.Predictor, o fixtureOptions) (*fixture, error) {
	f := &fixture{pred: p, reg: obs.NewRegistry(), served: make(chan error, 1)}
	f.srv = server.New(p,
		server.WithRegistry(f.reg), server.WithTracer(o.tracer),
		server.WithResilience(server.ResilienceConfig{MaxInFlight: 32, RequestTimeout: 10 * time.Second}),
		server.WithBatching(server.BatchConfig{MaxBatch: 32, MaxDelay: 2 * time.Millisecond}),
		server.WithQualityConfig(quality.Config{}),
		server.WithJournal(nil),
		server.WithIngest(server.IngestConfig{MaxEntities: o.maxEntities}),
		server.WithSharding(server.ShardConfig{Shards: 1}),
		server.WithFleetTelemetry(o.fleet),
		server.WithDebugAddr(""),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	f.addr = ln.Addr().String()
	f.hs = &http.Server{
		Handler:           f.srv,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the listener, waits for the serve loop to end and stops the
// server's workers.
func (f *fixture) close() error {
	err := f.hs.Close()
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, f.srv.Close())
}

// ingest posts CSV bodies and checks every row was accepted.
func ingest(c *client, bodies [][]byte) error {
	for _, b := range bodies {
		status, resp, err := c.do(postRequest("/v1/ingest", "text/csv", b))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("ingest answered %d: %s", status, resp)
		}
		if err := checkIngest(resp, countRows(b)); err != nil {
			return err
		}
	}
	return nil
}

func countRows(body []byte) int {
	n := 0
	for _, b := range body {
		if b == '\n' {
			n++
		}
	}
	return n
}

// checkIngest verifies an IngestResponse accepted exactly `rows` rows.
func checkIngest(resp []byte, rows int) error {
	for _, f := range []struct {
		name string
		want int
	}{{"rows", rows}, {"skipped", 0}, {"rejected", 0}} {
		got, err := intField(resp, f.name)
		if err != nil {
			return err
		}
		if got != f.want {
			return fmt.Errorf("ingest %s = %d, want %d (%s)", f.name, got, f.want, resp)
		}
	}
	return nil
}
