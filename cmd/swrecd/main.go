// Command swrecd serves recommendations over a JSON HTTP API — the
// deployment face of an installation once its crawler has materialized a
// community view. The community comes from a corpus directory (written
// by `swrec export` or by a crawl) or is generated synthetically, and is
// served by a persistent engine (internal/engine) whose caches are
// warmed at startup so the first request is as fast as the thousandth.
//
// Usage:
//
//	swrecd [-addr 127.0.0.1:8080] [-in DIR | -scale small|paper -seed N]
//	       [-metric appleseed|advogato|pathtrust|none] [-alpha 0.5]
//	       [-trust-threshold 0.01] [-max-neighbors 150]
//	       [-warm] [-shutdown-timeout 10s] [-wal DIR]
//	       [-checkpoint-every 64] [-checkpoint-retain 2]
//	       [-request-budget 50ms] [-compute-budget 2s]
//	       [-strategy-disable rung,...]
//
// With -wal the server opens the durable write path (internal/ingest):
// POST/DELETE endpoints on /v1/agents accept first-party mutations,
// acknowledged once appended to the write-ahead log under DIR and made
// visible through epoch snapshot swaps. On restart the server walks the
// recovery ladder (internal/checkpoint): newest compiled checkpoint,
// older retained checkpoint, and finally -in/-scale corpus recompute —
// then replays only the WAL records the recovered state does not cover.
// If no checkpoint is usable and the WAL has been truncated, it refuses
// to start rather than serve a state that is missing acknowledged
// writes. While running, a compiled checkpoint is written in the
// background every -checkpoint-every published snapshots (and at
// shutdown), retaining -checkpoint-retain files and truncating the WAL
// to the oldest of them, so the next restart restores the compiled
// engine state — CSR profile rows, warm neighborhoods — in O(file size)
// without recomputing Appleseed or Eq. 3 (see README "Checkpoints &
// recovery").
//
// -trust-threshold and -max-neighbors set the §3.3 neighborhood bounds:
// peers whose trust rank, relative to the neighborhood's best, falls
// below the threshold (in (0,1)) are not neighbors, and the max-neighbors
// (at least 1) peers of highest synthesized rank vote. Both default to
// the pipeline's own defaults; the bound is part of the algorithm, so
// neither can be switched off — an installation that wants everyone in
// range states a bound the size of its community.
//
// Endpoints (see internal/api for the response envelope):
//
//	GET /v1/healthz
//	GET /v1/metrics
//	GET /v1/stats
//	GET /v1/strategies
//	GET /v1/agents?offset=0&limit=25
//	GET /v1/agents/{escaped-uri}
//	GET /v1/agents/{escaped-uri}/neighbors?n=25&metric=&alpha=&measure=&strategy=
//	GET /v1/agents/{escaped-uri}/profile?n=15
//	GET /v1/agents/{escaped-uri}/recommendations?n=10&novel=1&theta=0.4&metric=&alpha=&measure=&strategy=
//	GET /v1/products/{escaped-id}
//	GET /v1/topics/{escaped-path}?offset=0&limit=50
//
// Hard queries — cold-start agents, disjoint profiles, thin trust
// neighborhoods — are answered by walking the strategy ladder
// (internal/strategy); every list response reports the chosen rung and
// attempt trace in its strategy block; -strategy-disable turns rungs off
// (the ladder's thresholds are constants of internal/strategy).
//
// The server logs one line per request (method, path, status, duration),
// applies read/write timeouts, and shuts down gracefully on SIGINT or
// SIGTERM, draining in-flight requests up to -shutdown-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"swrec"
	"swrec/internal/api"
	"swrec/internal/cf"
	"swrec/internal/checkpoint"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/strategy"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	inDir := flag.String("in", "", "corpus directory to serve (empty = generate)")
	scale := flag.String("scale", "small", "generated dataset scale: small | paper")
	seed := flag.Int64("seed", 1, "generation seed")
	metric := flag.String("metric", "appleseed", "trust metric: appleseed | advogato | pathtrust | none")
	alpha := flag.Float64("alpha", 0.5, "rank synthesization blend")
	trustThreshold := flag.Float64("trust-threshold", core.DefaultTrustThreshold, "trust floor: peers whose trust rank relative to the neighborhood's best falls below this are not neighbors, in (0,1)")
	maxNeighbors := flag.Int("max-neighbors", core.DefaultMaxNeighbors, "M: the peers of highest synthesized rank that vote, at least 1")
	warm := flag.Bool("warm", true, "precompute every agent's neighborhood at startup")
	warmupWorkers := flag.Int("warmup-workers", 0, "warmup worker pool size (0 = GOMAXPROCS)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	walDir := flag.String("wal", "", "write-ahead log directory; enables the durable write endpoints")
	ckptEvery := flag.Int("checkpoint-every", 64, "write a compiled checkpoint every N published snapshots (0 = disabled; requires -wal)")
	ckptRetain := flag.Int("checkpoint-retain", 2, "compiled checkpoint files retained for the recovery ladder (min 1)")
	requestBudget := flag.Duration("request-budget", 0, "per-request deadline for read endpoints; misses serve a degraded cached answer or 504 (0 = unbounded)")
	computeBudget := flag.Duration("compute-budget", 0, "cap on a detached cold-path computation after its request gave up (0 = unbounded)")
	stratDisable := flag.String("strategy-disable", "", "comma-separated strategy rungs to disable (see GET /v1/strategies)")
	flag.Parse()

	logger := log.New(os.Stderr, "swrecd: ", log.LstdFlags)

	// Boot-time flag validation: fail loud before any state is touched.
	if *trustThreshold <= 0 || *trustThreshold >= 1 {
		fatal(fmt.Errorf("-trust-threshold must be in (0,1), got %v", *trustThreshold))
	}
	if *maxNeighbors < 1 {
		fatal(fmt.Errorf("-max-neighbors must be >= 1, got %d", *maxNeighbors))
	}
	if *ckptEvery < 0 {
		fatal(fmt.Errorf("-checkpoint-every must be >= 0, got %d", *ckptEvery))
	}
	if *ckptRetain < 1 {
		fatal(fmt.Errorf("-checkpoint-retain must be >= 1, got %d", *ckptRetain))
	}

	// loadCorpus materializes the -in / -scale community — the direct
	// source without -wal, and the recovery ladder's rung-3 source of
	// last resort with it.
	loadCorpus := func() (*model.Community, error) {
		if *inDir != "" {
			comm, err := swrec.ImportCorpus(*inDir)
			if err != nil {
				return nil, err
			}
			logger.Printf("serving corpus %s: %d agents, %d products",
				*inDir, comm.NumAgents(), comm.NumProducts())
			return comm, nil
		}
		cfg := datagen.SmallScale()
		if *scale == "paper" {
			cfg = datagen.PaperScale()
		}
		cfg.Seed = *seed
		comm, _ := swrec.GenerateCommunity(cfg)
		logger.Printf("serving generated %s community: %d agents, %d products",
			*scale, comm.NumAgents(), comm.NumProducts())
		return comm, nil
	}

	m, err := core.ParseMetric(*metric)
	if err != nil {
		fatal(err)
	}
	opt := core.Options{
		Metric: m,
		Alpha:  *alpha, AlphaSet: true,
		TrustThreshold: *trustThreshold,
		MaxNeighbors:   *maxNeighbors,
		CF:             cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}

	var stratCfg strategy.Config
	if *stratDisable != "" {
		for _, name := range strings.Split(*stratDisable, ",") {
			stratCfg.Disable = append(stratCfg.Disable, strategy.Procedure(strings.TrimSpace(name)))
		}
	}
	engCfg := engine.Config{ComputeBudget: *computeBudget, Strategy: stratCfg}

	// Build the engine: with -wal, walk the recovery ladder (compiled
	// checkpoint → older checkpoint → corpus recompute + whole-WAL
	// replay); without, load the corpus directly.
	var eng *engine.Engine
	var recovered *checkpoint.Result
	if *walDir != "" {
		var err error
		recovered, err = checkpoint.Recover(checkpoint.RecoverConfig{
			WALDir:  *walDir,
			Options: opt,
			Engine:  engCfg,
			Corpus:  loadCorpus,
			Logf:    logger.Printf,
		})
		if err != nil {
			fatal(err)
		}
		eng = recovered.Engine
	} else {
		comm, err := loadCorpus()
		if err != nil {
			fatal(err)
		}
		eng, err = engine.New(comm, opt.ForTaxonomy(comm.Taxonomy() != nil), engCfg)
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The ingest pipeline replays unapplied WAL records at Open and is
	// the engine's only swapper; the API submits mutations through it.
	var pipe *ingest.Pipeline
	apiCfg := api.Config{ReadBudget: *requestBudget}
	handler := api.NewWithConfig(eng, nil, apiCfg)
	if recovered != nil {
		icfg := ingest.Config{CheckpointEvery: *ckptEvery, CheckpointRetain: *ckptRetain}
		var err error
		pipe, err = ingest.OpenFrom(eng, *walDir, icfg, recovered.Seq)
		if err != nil {
			fatal(err)
		}
		handler = api.NewWithConfig(eng, pipe, apiCfg)
	}

	// Warm last, whatever the boot path: the replay above publishes a new
	// snapshot, and neighborhoods computed before it would go with the old
	// one. What a checkpoint restored and the replay did not evict is a
	// cache hit here, so after a clean shutdown the pass computes nothing.
	// Bounded by the shutdown context: a signal during warmup stops the
	// pass instead of grinding through the remaining corpus.
	var warmed engine.WarmupResult
	if *warm {
		warmed = eng.WarmupCtx(ctx, *warmupWorkers)
	}
	if recovered != nil {
		epoch, seq := pipe.Applied()
		logger.Printf("recovery: source=%s rung=%d load=%v replayed=%d epoch=%d seq=%d warmed=%d in %v",
			recovered.Source, recovered.Rung, recovered.Load.Round(time.Millisecond), pipe.Replayed(),
			epoch, seq, warmed.Agents, warmed.Duration.Round(time.Millisecond))
		logger.Printf("write endpoints enabled, WAL at %s", *walDir)
	} else if *warm {
		logger.Printf("warmed %d agents in %v", warmed.Agents, warmed.Duration.Round(time.Millisecond))
	}
	comm := eng.Snapshot().Community()

	srv := &http.Server{
		Handler:           logRequests(logger, handler),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	sample := ""
	if ids := comm.Agents(); len(ids) > 0 {
		sample = url.PathEscape(string(ids[0]))
	}
	logger.Printf("listening on http://%s", ln.Addr())
	logger.Printf("  try: curl http://%s/v1/healthz", ln.Addr())
	logger.Printf("  try: curl 'http://%s/v1/agents/%s/recommendations?n=5'", ln.Addr(), sample)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		logger.Printf("signal received, draining for up to %v", *shutdownTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("forced shutdown: %v", err)
			_ = srv.Close()
		}
		if pipe != nil {
			// Close drains and, unless -checkpoint-every is 0, writes the
			// final checkpoint, so the next start replays nothing.
			if err := pipe.Close(); err != nil {
				logger.Printf("ingest close: %v", err)
			}
		}
		logger.Printf("bye")
	}
}

// logRequests emits one line per request: method, path, status, duration.
func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		logger.Printf("%s %s %d %v", r.Method, r.URL.RequestURI(), rec.status,
			time.Since(start).Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swrecd:", err)
	os.Exit(1)
}
