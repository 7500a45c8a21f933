// Command pnpserve is the PnP tuner's inference server: it exposes the
// model registry over the versioned v1 HTTP API (internal/api), training
// (or loading) each requested model once and serving predictions many
// times. Concurrent requests for the same model funnel through a
// micro-batching queue into single block-diagonal forward passes, and
// async tuning sessions run on a bounded job-store worker pool, so
// throughput scales with the batch engine instead of request count.
//
// Usage:
//
//	pnpserve -addr :8080 -dir ./models
//	pnpserve -addr :8080 -dir ./models -preload haswell/time,skylake/edp
//
// Endpoints:
//
//	POST   /v1/predict      {"machine","objective","graph",...} → picks
//	POST   /v1/tune         bounded engine session; "async":true → job
//	GET    /v1/jobs[/{id}]  list / poll async tuning jobs
//	DELETE /v1/jobs/{id}    cancel an async tuning job
//	GET    /v1/models       registry contents (cached + on disk)
//	GET    /v1/models/{id}  one model's version + refresh detail
//	GET    /v1/healthz      liveness + traffic counters
//	GET    /v1/traces/{id}  one request's recorded span timeline
//	GET    /metrics         Prometheus text exposition
//
// Every model serves from a float32 snapshot of its float64 weights
// (picks match the float64 argmax), and trains, saves and exports in
// float64.
//
// With -refresh-threshold N, tune sessions carrying a measure_budget
// feed their real-execution samples back into the registry; every N
// samples a model retrains incrementally in the background and shadows
// live predict traffic for -canary-window requests before being promoted
// (new version serves) or demoted (discarded).
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops,
// in-flight requests finish, running tune jobs drain until
// -shutdown-timeout, then everything is cancelled and batchers close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
	"pnptuner/internal/registry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], log.Default(), nil); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "pnpserve: %v\n", err)
		os.Exit(1)
	}
}

// run builds the server from args, listens, hands the bound address to
// ready (when set), and serves until ctx ends; then it drains and
// returns nil. Bad input is returned as an error before anything
// listens.
func run(ctx context.Context, args []string, logger *log.Logger, ready func(addr string)) error {
	fs := flag.NewFlagSet("pnpserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("dir", "", "on-disk model store (empty = in-memory only)")
	cacheSize := fs.Int("cache", 8, "max models held in memory (LRU)")
	epochs := fs.Int("epochs", 0, "override training epochs for train-on-miss")
	maxBatch := fs.Int("max-batch", 16, "micro-batch window size (max requests per forward)")
	maxInflight := fs.Int("max-inflight", 1024,
		"concurrent predict/tune requests admitted per route before load-shedding 503 overloaded (negative = unlimited)")
	jobWorkers := fs.Int("job-workers", 2, "concurrent async tune sessions")
	jobQueue := fs.Int("job-queue", 32, "max async tune jobs awaiting a worker")
	jobTTL := fs.Duration("job-ttl", 15*time.Minute, "finished-job retention before GC")
	refreshThreshold := fs.Int("refresh-threshold", 0,
		"measured samples per model that trigger a background refresh retrain (0 disables the measure→learn loop)")
	canaryWindow := fs.Int("canary-window", 16,
		"scored live predicts a refreshed model shadows before the promote/demote verdict")
	refreshEpochs := fs.Int("refresh-epochs", 4, "fine-tune epochs per refresh retrain")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second,
		"grace period for in-flight requests and running jobs on SIGINT/SIGTERM")
	preload := fs.String("preload", "", "comma-separated machine/objective[/scenario] keys to resolve at startup")
	peers := fs.String("peers", "", "comma-separated peer replica base URLs to fetch cold models from before training")
	enablePprof := fs.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/ for in-place profiling of the serving hot paths")
	traceLog := fs.Int("trace-log", 0,
		"log every Nth request's root span via slog (0 disables trace sampling logs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := core.DefaultModelConfig()
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}

	reg, err := registry.New(*dir, *cacheSize, registry.DefaultTrainer(cfg))
	if err != nil {
		return err
	}

	// In a cluster, a registry miss first asks the peer replicas for the
	// model's content-addressed blob (one of them may have trained it
	// already) and only trains when no peer has it. ImportBlob verifies
	// the content address, so a bad peer cannot poison the store.
	if peerURLs := splitList(*peers); len(peerURLs) > 0 {
		pool := client.NewPool(client.WithRetries(0, time.Millisecond))
		defer pool.Close()
		reg.SetFetcher(func(ctx context.Context, k registry.Key) ([]byte, error) {
			// ctx carries the resolving request's trace ID (never its
			// cancellation), so the peer hop joins the same trace; the
			// timeout bounds the fetch itself.
			ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			data, peer, err := pool.FetchModelBlob(ctx, peerURLs, k.ID())
			if data != nil {
				logger.Printf("fetched model %s (%s) from peer %s", k, k.ID(), peer)
			}
			return data, err // nil, nil: no peer has it, train locally
		})
		logger.Printf("peer model fetch enabled (%s)", strings.Join(peerURLs, ", "))
	}

	// Serving annotates client graphs with the corpus vocabulary; freeze
	// it so unknown node texts map to the unknown token instead of minting
	// ids the trained embeddings have never seen.
	corpus, err := kernels.Compile()
	if err != nil {
		return err
	}
	corpus.Vocab.Freeze()

	srv := registry.NewServer(reg, corpus.Vocab, registry.ServerConfig{
		MaxBatch:    *maxBatch,
		MaxInflight: *maxInflight,
		Jobs: registry.JobStoreConfig{
			Workers: *jobWorkers,
			Queue:   *jobQueue,
			TTL:     *jobTTL,
		},
		Refresh: registry.RefreshConfig{
			Threshold:    *refreshThreshold,
			CanaryWindow: *canaryWindow,
			Epochs:       *refreshEpochs,
		},
	})
	defer srv.Close() // a no-op after the drain below
	if *refreshThreshold > 0 {
		logger.Printf("model refresh enabled: threshold %d samples, canary window %d, %d epochs",
			*refreshThreshold, *canaryWindow, *refreshEpochs)
	}
	if *traceLog > 0 {
		srv.SetTraceLogging(*traceLog)
		logger.Printf("trace sampling enabled: logging every %d requests", *traceLog)
	}

	for _, spec := range splitList(*preload) {
		key, err := parseKey(spec)
		if err != nil {
			return err
		}
		logger.Printf("preloading %s ...", key)
		start := time.Now()
		if _, err := reg.Get(key); err != nil {
			return err
		}
		logger.Printf("preloaded %s in %s", key, time.Since(start).Round(time.Millisecond))
	}

	// The registry handler owns the API surface; -pprof mounts the
	// standard profiling endpoints beside it so CPU/heap profiles of the
	// micro-batched forward pass can be taken from a live server
	// (go tool pprof http://host:port/debug/pprof/profile).
	handler := srv.Handler()
	if *enablePprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Printf("pprof enabled at /debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("pnpserve listening on %s (store %q, cache %d, batch %d, jobs %d×%d)",
		ln.Addr(), *dir, *cacheSize, *maxBatch, *jobWorkers, *jobQueue)
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		// No WriteTimeout: the first /v1/predict for a model trains it
		// (minutes); slow-client protection comes from the read limits
		// and the bounded request body.
		IdleTimeout: 2 * time.Minute,
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	// Graceful shutdown: stop the listener first so no new requests race
	// the drain, let in-flight requests and running jobs finish within
	// the grace period, then cancel what remains and close the batchers.
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down (grace %s)", *shutdownTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	srv.Shutdown(drainCtx)
	<-served
	logger.Printf("drained; bye")
	return nil
}

// splitList reads a comma-separated flag into its non-empty parts.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseKey reads "machine/objective" or "machine/objective/scenario".
func parseKey(spec string) (registry.Key, error) {
	parts := strings.SplitN(spec, "/", 3)
	if len(parts) < 2 {
		return registry.Key{}, fmt.Errorf("pnpserve: bad preload key %q (want machine/objective[/scenario])", spec)
	}
	key := registry.Key{Machine: parts[0], Objective: parts[1], Scenario: registry.ScenarioFull}
	if len(parts) == 3 {
		key.Scenario = parts[2]
	}
	return key, key.Validate()
}
