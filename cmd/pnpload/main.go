// Command pnpload is an open-loop load generator for a pnpgate (or a
// single pnpserve): Poisson arrivals at a fixed offered rate, a
// weighted predict / sync-tune / async-job traffic mix drawn uniformly
// over a configurable model-key space, and HDR-style log-linear
// latency histograms. The run's report — per-op p50/p90/p99/mean/max,
// throughput, and error counts by stable API code — is written as JSON.
//
// Usage:
//
//	pnpload -target http://localhost:8090 -rate 100 -duration 30s -out report.json
//	pnpload -target http://localhost:8090 -scenarios full,loocv:lu,loocv:mg -max-error-rate 0
//	pnpload -target http://localhost:8090 -timeout 500ms -chaos latency=20ms,errors=0.05 -max-p99 250ms
//
// -timeout gives each request its own deadline budget (stamped onto
// X-Deadline, so gate and replicas shed expired work as typed
// deadline_exceeded); -chaos injects faults through a local chaos proxy
// on the way to the target; deadline-exceeded, server-shed, and
// degraded outcomes are reported apart from unexpected errors, and
// -max-p99 turns the predict tail into an exit-code assertion.
//
// Open-loop means arrivals never wait for completions: if the target
// slows down, latency and in-flight count grow instead of the load
// quietly throttling itself, which is what makes the quantiles honest.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pnptuner/internal/chaos"
	"pnptuner/internal/loadgen"
)

func main() {
	target := flag.String("target", "http://localhost:8090", "base URL of the gate or replica under load")
	rate := flag.Float64("rate", 50, "offered arrival rate (requests/second, Poisson)")
	duration := flag.Duration("duration", 10*time.Second, "how long to generate arrivals")
	inflight := flag.Int("inflight", 256, "max concurrent requests before arrivals are shed")
	seed := flag.Int64("seed", 1, "rng seed for arrivals and traffic mix")
	predictW := flag.Float64("predict", 0.8, "predict traffic weight")
	tuneW := flag.Float64("tune", 0.1, "synchronous tune traffic weight")
	jobW := flag.Float64("job", 0.1, "async tune job traffic weight")
	machines := flag.String("machines", "haswell,skylake", "comma-separated machines")
	objectives := flag.String("objectives", "time,edp", "comma-separated objectives")
	scenarios := flag.String("scenarios", "full", "comma-separated scenarios (e.g. full,loocv:lu)")
	budget := flag.Int("budget", 2, "execution budget per tune")
	regions := flag.Int("regions", 4, "distinct corpus regions to cycle through")
	withHist := flag.Bool("hist", true, "include raw histogram buckets in the report")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	maxErrRate := flag.Float64("max-error-rate", 1.0, "exit nonzero when unexpected errors/sent exceeds this fraction (typed timeouts and sheds are counted separately)")
	timeout := flag.Duration("timeout", 0, "per-request deadline budget, stamped onto X-Deadline so it propagates through gate and replicas (0 = unbounded)")
	maxP99 := flag.Duration("max-p99", 0, "exit nonzero when the predict p99 exceeds this (0 = unbounded)")
	chaosSpec := flag.String("chaos", "", "inject faults between pnpload and the target through a local chaos proxy, e.g. latency=20ms,jitter=5ms,errors=0.05 (empty = direct)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	loadTarget := *target
	if *chaosSpec != "" {
		faults, err := chaos.ParseFaults(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpload: %v\n", err)
			os.Exit(1)
		}
		proxy, err := chaos.New(*target, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpload: %v\n", err)
			os.Exit(1)
		}
		proxy.SetFaults(faults)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpload: chaos proxy listen: %v\n", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: proxy}
		go srv.Serve(ln)
		defer srv.Close()
		loadTarget = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "pnpload: chaos proxy %s -> %s injecting %s\n", loadTarget, *target, faults)
	}

	// Scrape the target's own metrics around the run so the report
	// carries the server-side deltas (queue waits, sheds, cache hits)
	// next to the client-observed latencies. Scrapes go to the real
	// target, not the chaos proxy — faults belong in the load path,
	// not the measurement path. A failed scrape degrades to a report
	// without deltas rather than failing the run.
	before, scrapeErr := loadgen.ScrapeMetrics(ctx, *target)
	if scrapeErr != nil {
		fmt.Fprintf(os.Stderr, "pnpload: metrics scrape before run: %v (report will omit server deltas)\n", scrapeErr)
	}

	rep, err := loadgen.Run(ctx, loadgen.Config{
		Target:        loadTarget,
		Rate:          *rate,
		Duration:      *duration,
		MaxInFlight:   *inflight,
		Seed:          *seed,
		PredictWeight: *predictW,
		TuneWeight:    *tuneW,
		JobWeight:     *jobW,
		Machines:      split(*machines),
		Objectives:    split(*objectives),
		Scenarios:     split(*scenarios),
		Budget:        *budget,
		Regions:       *regions,
		Timeout:       *timeout,
	}, *withHist)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpload: %v\n", err)
		os.Exit(1)
	}
	// The artifact names what was measured, not the ephemeral proxy hop.
	rep.Target = *target

	if scrapeErr == nil {
		after, err := loadgen.ScrapeMetrics(context.Background(), *target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpload: metrics scrape after run: %v (report will omit server deltas)\n", err)
		} else {
			rep.ServerDeltas = loadgen.MetricsDelta(before, after)
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpload: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pnpload: %v\n", err)
		os.Exit(1)
	}

	predictP99 := rep.Ops[loadgen.OpPredict].P99Millis
	fmt.Fprintf(os.Stderr, "pnpload: %d sent, %d ok, %d errors, %d timeouts, %d server-shed, %d degraded, %d shed, %.1f req/s; predict p50=%.2fms p99=%.2fms\n",
		rep.Sent, rep.Completed, rep.Errors, rep.Timeouts, rep.ShedByServer, rep.Degraded, rep.Shed, rep.ThroughputRPS,
		rep.Ops[loadgen.OpPredict].P50Millis, predictP99)

	failed := false
	if rep.Sent > 0 && float64(rep.Errors)/float64(rep.Sent) > *maxErrRate {
		fmt.Fprintf(os.Stderr, "pnpload: error rate %.3f exceeds -max-error-rate %.3f\n",
			float64(rep.Errors)/float64(rep.Sent), *maxErrRate)
		failed = true
	}
	if *maxP99 > 0 && predictP99 > float64(*maxP99)/float64(time.Millisecond) {
		fmt.Fprintf(os.Stderr, "pnpload: predict p99 %.2fms exceeds -max-p99 %s\n", predictP99, *maxP99)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func split(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
