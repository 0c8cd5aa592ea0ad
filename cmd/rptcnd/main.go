// Command rptcnd trains an RPTCN predictor and serves forecasts over HTTP
// — the online integration point for a cluster resource manager.
//
// Usage:
//
//	rptcnd -synthetic -addr :8080
//	rptcnd -input trace.csv -entity c_10000 -scenario mul-exp
//	rptcnd -synthetic -debug-addr :6060   # pprof + expvar + trace sidecar
//	rptcnd -synthetic -trace -rundir runs # span traces + JSONL run journal
//	rptcnd -synthetic -adapt -adapt-dir adapt-state   # drift-adaptive online retraining
//	rptcnd -synthetic -shards 8 -max-entities 4096    # fleet-scale sharded entity serving
//	rptcnd -synthetic -registry-dir models -publish base   # versioned registry + ?model= serving
//
// Then:
//
//	curl localhost:8080/v1/model
//	curl localhost:8080/metrics
//	curl -X POST localhost:8080/v1/forecast -d '{"indicators": [[...], ...], "entity": "c1", "t": 1234}'
//	curl -X POST localhost:8080/v1/ingest --data-binary @trace.csv   # stream raw CSV into per-entity rings
//	curl localhost:8080/v1/forecast/c_10000                          # forecast straight from an entity's ring
//	curl -X POST localhost:8080/v1/observe -d '{"entity": "c1", "t0": 1235, "values": [42.1, 40.8]}'
//	curl localhost:8080/debug/quality      # live accuracy, drift, and SLO status (add ?format=html)
//	curl localhost:8080/debug/fleet        # per-entity sketches, exemplars, trace sampling (add ?format=html)
//	curl localhost:8080/debug/adapt        # online-adaptation state: generation, shadow gates, rollbacks (with -adapt)
//	curl localhost:8080/debug/shards       # per-shard occupancy, queue depth, latency quantiles, model-cache stats
//	curl localhost:8080/debug              # index of every diagnostic endpoint
//	curl localhost:8080/debug/traces      # tail-sampled span journal (with -trace)
//	go run ./cmd/rptcntop                 # live terminal ops dashboard
//	go run ./cmd/runlog runs              # summarize the run journal
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight
// forecasts drain, then a final metrics snapshot is logged.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/runlog"
	obstrace "repro/internal/obs/trace"
	"repro/internal/quality"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/train"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		debugAddr   = flag.String("debug-addr", "", "optional debug listen address serving /debug/pprof, /debug/vars, and /metrics")
		input       = flag.String("input", "", "trace CSV in v2018 layout")
		synthetic   = flag.Bool("synthetic", false, "train on a generated workload")
		entityID    = flag.String("entity", "", "entity to train on (default: first)")
		kindName    = flag.String("kind", "container", "machine or container")
		scenario    = flag.String("scenario", "mul-exp", "uni, mul, or mul-exp")
		window      = flag.Int("window", 32, "input window length")
		horizon     = flag.Int("horizon", 5, "forecast steps")
		epochs      = flag.Int("epochs", 30, "max training epochs")
		samples     = flag.Int("samples", 2500, "synthetic series length")
		seed        = flag.Uint64("seed", 1, "seed")
		loadModel   = flag.String("load", "", "serve a predictor saved by `rptcn -save` instead of training")
		traceOn     = flag.Bool("trace", false, "record span traces of training and serving (see /debug/traces)")
		runDir      = flag.String("rundir", "", "write a run-artifact journal (JSONL) for the training run under this directory")
		ckptDir     = flag.String("checkpoint-dir", "", "write crash-safe training checkpoints under this directory")
		resume      = flag.Bool("resume", false, "resume training from the newest checkpoint in -checkpoint-dir")
		guard       = flag.Bool("guard", true, "divergence guards: skip NaN/exploding batches, roll back on NaN validation")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-forecast inference deadline before degrading to the naive fallback")
		maxInflight = flag.Int("max-inflight", 32, "max concurrent requests before shedding with 429")
		maxBatch    = flag.Int("max-batch", 32, "max forecasts fused into one model pass (1 disables micro-batching)")
		sloSpec     = flag.String("slo", "", `forecast-quality SLO rules, comma-separated (e.g. "mae<=5@256, p90_abs_err<=12")`)
		keepEvery   = flag.Int("trace-keep-every", 1, "tail sampling: retain 1 in N boring traces (errors/slow/degraded always kept; 1 keeps all)")
		slowTrace   = flag.Duration("trace-slow", 250*time.Millisecond, "tail sampling: always retain traces at least this slow")

		maxEntities = flag.Int("max-entities", 0, "max entities with ring state; beyond it the least-recently-touched ring is evicted (0 = unbounded)")

		shards      = flag.Int("shards", 1, "forecast-serving shards, each running its own forwards on the one published model")
		registryDir = flag.String("registry-dir", "", "versioned model registry directory; enables GET /v1/forecast/{entity}?model=<name>")
		publish     = flag.String("publish", "", "publish the served predictor into -registry-dir under this name at boot")

		adaptOn      = flag.Bool("adapt", false, "drift-adaptive online retraining: background fine-tune on drift/mutation, shadow-evaluate, hot-swap (needs streaming ingestion for training data)")
		adaptDir     = flag.String("adapt-dir", "adapt-state", "crash-safe supervisor state and candidate checkpoints live here")
		adaptMinSamp = flag.Int("adapt-min-samples", 0, "ring samples required before a retrain starts (0 = 4x the model's minimum history)")
		adaptShadow  = flag.Int("adapt-shadow", 0, "resolved shadow forecasts required before the promotion gate is judged (0 = 32)")
		qualityFast  = flag.Bool("quality-fast", false, "tune the mutation/drift detectors for compressed replays (small median/warmup windows); for demos and CI, not production cadences")
	)
	flag.Parse()
	log := obs.Logger("rptcnd")
	obs.RegisterRuntimeMetrics(obs.Default())
	if *traceOn {
		obstrace.Default().SetEnabled(true)
		if *keepEvery != 1 || *slowTrace > 0 {
			obstrace.Default().SetTailSampling(&obstrace.TailSampleConfig{
				KeepEvery: *keepEvery, SlowThreshold: *slowTrace,
			})
		}
	}

	fatal := func(msg string, err error) {
		log.Error(msg, "err", err)
		os.Exit(1)
	}
	sloRules, err := quality.ParseRules(*sloSpec)
	if err != nil {
		fatal("parse -slo", err)
	}
	scfg := serveConfig{
		addr:      *addr,
		debugAddr: *debugAddr,
		res: server.ResilienceConfig{
			MaxInFlight:    *maxInflight,
			RequestTimeout: *reqTimeout,
		},
		batch:       server.BatchConfig{MaxBatch: *maxBatch},
		quality:     quality.Config{Rules: sloRules},
		runDir:      *runDir,
		ingest:      server.IngestConfig{MaxEntities: *maxEntities},
		shard:       server.ShardConfig{Shards: *shards},
		registryDir: *registryDir,
		publish:     *publish,
	}
	if *qualityFast {
		scfg.quality.Preset = quality.PresetFast
	}
	if scfg.publish != "" && scfg.registryDir == "" {
		fatal("configure", errors.New("-publish needs -registry-dir"))
	}
	if *adaptOn {
		scfg.adapt = &adapt.Config{
			Dir:               *adaptDir,
			MinSamples:        *adaptMinSamp,
			MinShadowResolved: *adaptShadow,
		}
	}

	if *loadModel != "" {
		f, err := os.Open(*loadModel)
		if err != nil {
			fatal("open model", err)
		}
		p, err := core.LoadPredictor(f)
		f.Close()
		if err != nil {
			fatal("load model", err)
		}
		serve(log, p, scfg)
		return
	}

	var sc core.Scenario
	switch strings.ToLower(*scenario) {
	case "uni":
		sc = core.Uni
	case "mul":
		sc = core.Mul
	case "mul-exp", "mulexp":
		sc = core.MulExp
	default:
		log.Error("unknown scenario", "scenario", *scenario)
		os.Exit(1)
	}

	kind := trace.Container
	if *kindName == "machine" {
		kind = trace.Machine
	}

	var entity *trace.EntitySeries
	switch {
	case *synthetic:
		entity = trace.Generate(trace.GeneratorConfig{
			Entities: 1, Kind: kind, Samples: *samples, Seed: *seed,
		})[0]
	case *input != "":
		f, err := os.Open(*input)
		if err != nil {
			fatal("open trace", err)
		}
		entities, stats, err := trace.ReadCSVStats(f, kind)
		f.Close()
		if err != nil {
			fatal("read trace", err)
		}
		if stats.Skipped > 0 {
			log.Warn("trace csv had unusable rows", "skipped", stats.Skipped, "kept", stats.Rows)
		}
		if len(entities) == 0 {
			fatal("read trace", errors.New("no entities in "+*input))
		}
		entity = entities[0]
		if *entityID != "" {
			entity = nil
			for _, e := range entities {
				if e.ID == *entityID {
					entity = e
					break
				}
			}
			if entity == nil {
				fatal("select entity", errors.New("entity "+*entityID+" not found"))
			}
		}
	default:
		fatal("configure", errors.New("need -input or -synthetic"))
	}

	// Run-artifact journal: a persistent JSONL record of this training
	// run (render it back with `go run ./cmd/runlog <dir>`).
	var journal *runlog.Run
	if *runDir != "" {
		var err error
		journal, err = runlog.Create(*runDir)
		if err != nil {
			fatal("create run journal", err)
		}
		log.Info("journaling run", "path", journal.Path())
	}
	hooks := []train.Hook{
		train.NewMetricsHook(obs.Default()),
		train.NewLogHook(obs.Logger("train")),
	}
	if journal != nil {
		hooks = append(hooks, train.NewJournalHook(journal))
	}
	journal.Log(runlog.TypeConfig, map[string]any{
		"scenario": sc.String(), "kind": entity.Kind.String(), "entity": entity.ID,
		"window": *window, "horizon": *horizon, "epochs": *epochs, "seed": *seed,
	})

	p := core.NewPredictor(core.PredictorConfig{
		Scenario: sc, Window: *window, Horizon: *horizon, Epochs: *epochs, Seed: *seed,
		Model: core.Config{
			Channels: []int{16, 16, 16}, KernelSize: 3, Dilations: []int{1, 2, 4},
			Dropout: 0.1, WeightNorm: true, FCWidth: 32,
		},
		// Training progress streams into the same registry /metrics
		// serves, plus per-epoch structured log lines.
		Hooks:      hooks,
		Tracer:     obstrace.Default(),
		Checkpoint: train.CheckpointConfig{Dir: *ckptDir, Resume: *resume},
		Guard:      train.GuardConfig{Enabled: *guard},
	})
	log.Info("training RPTCN", "scenario", sc.String(), "kind", entity.Kind.String(), "entity", entity.ID)
	start := time.Now()
	if err := p.Fit(entity.Matrix(), int(trace.CPUUtilPercent)); err != nil {
		fatal("fit", err)
	}
	rep, err := p.TestMetrics()
	if err != nil {
		fatal("test metrics", err)
	}
	log.Info("trained",
		"dur", time.Since(start).Round(time.Millisecond),
		"test_mse_x100", rep.MSE*100, "test_mae_x100", rep.MAE*100)
	journal.Log(runlog.TypeFinal, map[string]any{
		"test_mse": rep.MSE, "test_mae": rep.MAE,
		"train_seconds": time.Since(start).Seconds(),
	})
	if err := journal.Close(); err != nil {
		log.Error("run journal", "err", err)
	}
	serve(log, p, scfg)
}

// serveConfig carries every serving-side knob from flag parsing to
// serve(), so the training and -load paths stay symmetric.
type serveConfig struct {
	addr, debugAddr string
	res             server.ResilienceConfig
	batch           server.BatchConfig
	quality         quality.Config
	runDir          string
	ingest          server.IngestConfig
	shard           server.ShardConfig
	registryDir     string        // "": no model registry
	publish         string        // publish the served predictor under this name at boot
	adapt           *adapt.Config // nil: adaptation off
}

func serve(log *slog.Logger, p *core.Predictor, sc serveConfig) {
	addr, debugAddr, runDir := sc.addr, sc.debugAddr, sc.runDir
	reg := obs.Default()
	reg.PublishExpvar("rptcn")
	// Pre-register the training families so /metrics shows them even for
	// predictors served via -load (no training in this process).
	train.NewMetricsHook(reg)

	// Serving journal: drift and SLO transitions detected while serving
	// land in their own JSONL run artifact, separate from the training run.
	var journal *runlog.Run
	if runDir != "" {
		var err error
		journal, err = runlog.Create(runDir)
		if err != nil {
			log.Error("create serving journal", "err", err)
			os.Exit(1)
		}
		log.Info("journaling serving-quality events", "path", journal.Path())
	}

	opts := []server.Option{
		server.WithRegistry(reg), server.WithTracer(obstrace.Default()),
		server.WithResilience(sc.res), server.WithBatching(sc.batch),
		server.WithQualityConfig(sc.quality),
		server.WithJournal(journal),
		server.WithIngest(sc.ingest),
		server.WithSharding(sc.shard),
		server.WithDebugAddr(debugAddr),
	}
	if sc.registryDir != "" {
		store, err := registry.Open(sc.registryDir)
		if err != nil {
			log.Error("open model registry", "err", err)
			os.Exit(1)
		}
		if sc.publish != "" {
			v, err := store.Publish(sc.publish, p)
			if err != nil {
				log.Error("publish model", "name", sc.publish, "err", err)
				os.Exit(1)
			}
			log.Info("published serving model", "name", sc.publish, "version", v, "dir", sc.registryDir)
		}
		cache := registry.NewCache(store, 0)
		cache.RegisterMetrics(reg)
		opts = append(opts, server.WithModelRegistry(cache))
		log.Info("model registry enabled", "dir", sc.registryDir, "models", store.Names())
	}
	if sc.shard.Shards > 1 {
		log.Info("sharded entity serving", "shards", sc.shard.Shards)
	}
	if sc.adapt != nil {
		// The rings grow to hold a retrain's samples (server.WithAdaptation).
		log.Info("online adaptation enabled", "dir", sc.adapt.Dir)
		opts = append(opts, server.WithAdaptation(*sc.adapt))
	}
	handler := server.New(p, opts...)
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	if debugAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.Handle("/debug/vars", http.DefaultServeMux)
			mux.Handle("/debug/traces", obstrace.Default().Handler())
			mux.Handle("/metrics", reg.Handler())
			dbg := &http.Server{Addr: debugAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			log.Info("debug server listening", "addr", debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug server", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	endpoints := "GET /healthz, GET /readyz, GET /metrics, GET /v1/model, POST /v1/forecast, POST /v1/ingest, GET /v1/forecast/{entity}, GET /v1/entities, POST /v1/observe, GET /debug (index), GET /debug/quality, GET /debug/fleet, GET /debug/shards"
	if sc.adapt != nil {
		endpoints += ", GET /debug/adapt"
	}
	log.Info("serving forecasts", "addr", addr, "endpoints", endpoints)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Info("signal received, draining in-flight forecasts")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Error("shutdown", "err", err)
		}
	}
	// Stop the quality engine's worker and flush the serving journal.
	if err := handler.Close(); err != nil {
		log.Error("close server", "err", err)
	}
	if err := journal.Close(); err != nil {
		log.Error("serving journal", "err", err)
	}

	// Final metrics snapshot: the operational record of this process.
	for _, s := range reg.Snapshot() {
		if s.Type == "histogram" {
			log.Info("final metric", "name", s.Name+s.Labels, "count", s.Count, "sum", s.Sum)
		} else {
			log.Info("final metric", "name", s.Name+s.Labels, "value", s.Value)
		}
	}
	log.Info("bye")
}
