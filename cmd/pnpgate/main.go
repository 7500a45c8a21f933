// Command pnpgate is the multi-replica serving router: it fronts N
// shared-nothing pnpserve replicas behind the same /v1 API surface,
// consistent-hashing each model key (machine, scenario, objective) to
// an owning replica, probing replica health in the background, failing
// retryable requests over to the next replica in the key's preference
// order, and single-flighting cold-model warm-up so one replica trains
// while its peers later fetch the blob.
//
// Usage:
//
//	pnpgate -addr :8090 -replicas http://host1:8080,http://host2:8080,http://host3:8080
//
// Endpoints (all under /v1, same contract as one replica):
//
//	POST   /v1/predict     routed by model key, failover on transport errors
//	POST   /v1/tune        sync routed like predict; async creates a job on
//	                       the owner and returns its "r<replica>-" scoped ID
//	GET    /v1/jobs        merged listing across live replicas
//	GET    /v1/jobs/{id}   routed to the owning replica by ID prefix
//	DELETE /v1/jobs/{id}   likewise
//	GET    /v1/models      merged listing, each entry tagged with its replica
//	GET    /v1/healthz     gate liveness + per-replica breaker states
//	GET    /v1/traces/{id} the gate-side span timeline of one request
//	GET    /metrics        Prometheus text exposition (pnpgate_* families)
//
// Requests carry an X-Request-ID trace ID (minted here when absent) that
// the gate stamps onto every proxied replica attempt, so one ID pulls
// the gate-side spans from this process and the replica-side spans from
// the owning pnpserve's /v1/traces/{id}.
//
// SIGINT/SIGTERM drain in-flight requests before exit.
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

	"pnptuner/internal/gate"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], log.Default(), nil); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "pnpgate: %v\n", err)
		os.Exit(1)
	}
}

// run builds the gate from args, listens, hands the bound address to
// ready (when set), and serves until ctx ends; then it drains and
// returns nil. Bad input is returned as an error before anything
// listens.
func run(ctx context.Context, args []string, logger *log.Logger, ready func(addr string)) error {
	fs := flag.NewFlagSet("pnpgate", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	replicas := fs.String("replicas", "", "comma-separated pnpserve base URLs (order is the stable replica index)")
	vnodes := fs.Int("vnodes", gate.DefaultVNodes, "virtual nodes per replica on the hash ring")
	failThreshold := fs.Int("fail-threshold", 3, "consecutive transport failures that mark a replica down")
	recoverOKs := fs.Int("recover-successes", 2, "consecutive successes a half-open replica needs to be up")
	probeInterval := fs.Duration("probe-interval", time.Second, "background health-probe period")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	attemptTimeout := fs.Duration("attempt-timeout", time.Minute, "per-replica attempt bound; a black-holed replica costs one slice of the request budget, not all of it (negative = unbounded)")
	hedgeDelay := fs.Duration("hedge-delay", 0, "fixed hedge trigger for idempotent predicts (0 = adaptive, from the observed p99)")
	noHedge := fs.Bool("no-hedge", false, "disable hedged predicts entirely")
	enablePprof := fs.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/ for in-place profiling of the routing hot paths")
	traceLog := fs.Int("trace-log", 0,
		"log every Nth request's root span via slog (0 disables trace sampling logs)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	g, err := gate.New(gate.Config{
		Replicas: urls,
		VNodes:   *vnodes,
		Health: gate.TrackerConfig{
			FailThreshold:    *failThreshold,
			RecoverSuccesses: *recoverOKs,
			ProbeInterval:    *probeInterval,
		},
		AttemptTimeout: *attemptTimeout,
		HedgeDelay:     *hedgeDelay,
		DisableHedge:   *noHedge,
	})
	if err != nil {
		return err
	}
	defer g.Close()

	if *traceLog > 0 {
		g.SetTraceLogging(*traceLog)
		logger.Printf("trace sampling enabled: logging every %d requests", *traceLog)
	}

	// The gate handler owns the API surface; -pprof mounts the standard
	// profiling endpoints beside it, mirroring pnpserve's flag.
	handler := g.Handler()
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
	logger.Printf("pnpgate listening on %s, routing %d replicas (%s)", ln.Addr(), len(urls), strings.Join(urls, ", "))
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	logger.Printf("draining (grace %s)", *shutdownTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	<-served
	logger.Printf("drained; bye")
	return nil
}
