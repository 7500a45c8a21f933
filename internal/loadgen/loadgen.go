// Package loadgen is the open-loop load generator behind cmd/pnpload:
// Poisson arrivals at a fixed offered rate (arrivals never wait for
// completions, so server slowdowns surface as latency instead of
// silently throttling the load), a weighted predict/tune/job traffic
// mix over the model-key space, and per-op latencies recorded into
// telemetry.Histogram — the log-linear histogram the servers expose at
// /metrics — from which the per-op p50/p90/p99 and throughput report is
// derived.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/kernels"
	"pnptuner/internal/telemetry"
)

// Op names in reports.
const (
	OpPredict = "predict"
	OpTune    = "tune"
	OpJob     = "job"
)

// Config parameterizes one load run.
type Config struct {
	// Target is the base URL (a pnpgate or a single pnpserve).
	Target string
	// Rate is the offered arrival rate in requests/second (Poisson).
	Rate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// MaxInFlight caps concurrent requests; arrivals beyond it are shed
	// and counted (default 256). Open-loop means completions never pace
	// arrivals — only this safety cap does.
	MaxInFlight int
	// Seed fixes the arrival process and traffic mix (default 1).
	Seed int64
	// PredictWeight/TuneWeight/JobWeight set the traffic mix (defaults
	// 0.8/0.1/0.1). Zero-total falls back to all-predict.
	PredictWeight, TuneWeight, JobWeight float64
	// Machines/Objectives/Scenarios span the model-key space requests
	// draw from uniformly (defaults: haswell+skylake × time+edp × full).
	Machines, Objectives, Scenarios []string
	// Budget is the per-tune execution budget (default 2).
	Budget int
	// Timeout bounds each request with its own context deadline; the
	// client stamps it onto X-Deadline, so the budget propagates to the
	// gate and replicas (0 = unbounded).
	Timeout time.Duration
	// Regions bounds how many distinct corpus regions requests cycle
	// through (default 4).
	Regions int
	// Client overrides the SDK client (tests); built from Target when
	// nil.
	Client *client.Client
}

func (c *Config) defaults() {
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PredictWeight+c.TuneWeight+c.JobWeight <= 0 {
		c.PredictWeight, c.TuneWeight, c.JobWeight = 0.8, 0.1, 0.1
	}
	if len(c.Machines) == 0 {
		c.Machines = []string{"haswell", "skylake"}
	}
	if len(c.Objectives) == 0 {
		c.Objectives = []string{"time", "edp"}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []string{"full"}
	}
	if c.Budget <= 0 {
		c.Budget = 2
	}
	if c.Regions <= 0 {
		c.Regions = 4
	}
}

// OpReport is one operation's share of a Report. Timeouts (the
// request's deadline budget ran out), Shed (the server load-shed with a
// typed retry-later code), and Degraded (the gate answered from its
// degraded path) are expected overload/chaos outcomes and counted
// apart; Errors is unexpected failures only.
type OpReport struct {
	Count      int64                   `json:"count"`
	Errors     int64                   `json:"errors"`
	Timeouts   int64                   `json:"timeouts,omitempty"`
	Shed       int64                   `json:"shed,omitempty"`
	Degraded   int64                   `json:"degraded,omitempty"`
	ErrorCodes map[string]int64        `json:"error_codes,omitempty"`
	P50Millis  float64                 `json:"p50_ms"`
	P90Millis  float64                 `json:"p90_ms"`
	P99Millis  float64                 `json:"p99_ms"`
	MeanMillis float64                 `json:"mean_ms"`
	MaxMillis  float64                 `json:"max_ms"`
	Histogram  []telemetry.BucketCount `json:"histogram,omitempty"`
}

// Report is one load run's outcome. Latency quantiles cover successful
// requests only; failures are tallied by stable API code per op.
// Errors counts unexpected failures; Timeouts and ShedByServer are the
// typed overload outcomes; Shed is arrivals the generator itself
// dropped at its in-flight cap (never sent); Degraded counts answers
// served from the gate's degraded path.
type Report struct {
	Target        string               `json:"target"`
	OfferedRate   float64              `json:"offered_rate_rps"`
	DurationSec   float64              `json:"duration_sec"`
	Sent          int64                `json:"sent"`
	Completed     int64                `json:"completed"`
	Errors        int64                `json:"errors"`
	Timeouts      int64                `json:"timeouts"`
	ShedByServer  int64                `json:"shed_by_server"`
	Degraded      int64                `json:"degraded"`
	Shed          int64                `json:"shed"`
	ThroughputRPS float64              `json:"throughput_rps"`
	Ops           map[string]*OpReport `json:"ops"`

	// ServerDeltas is the target's /metrics movement across the run
	// (after minus before, nonzero series only; see MetricsDelta) —
	// the server's own account of the load, embedded in the artifact
	// so a benchmark report pairs client-observed latency with
	// server-side queue/shed/cache behaviour. Empty when the target
	// predates /metrics or the scrape failed.
	ServerDeltas map[string]float64 `json:"server_metrics_delta,omitempty"`
}

// opStats accumulates one op's outcomes during the run.
type opStats struct {
	hist     *telemetry.Histogram
	count    atomic.Int64
	errs     atomic.Int64
	timeouts atomic.Int64
	shed     atomic.Int64
	degraded atomic.Int64
	mu       sync.Mutex
	byCode   map[string]int64
}

func (s *opStats) fail(err error) {
	code := client.ErrorCode(err)
	switch {
	case code == api.CodeDeadlineExceeded || errors.Is(err, context.DeadlineExceeded):
		// The budget ran out — server-side typed shed or the client's
		// own deadline firing first; either way the same outcome.
		s.timeouts.Add(1)
		if code == "" {
			code = api.CodeDeadlineExceeded
		}
	case code == api.CodeOverloaded || code == api.CodeQueueFull ||
		code == api.CodeUnavailable || code == api.CodeNoReplica:
		// Typed load-shed: the server refused before doing work and said
		// when to come back. Expected under overload, not an error.
		s.shed.Add(1)
	default:
		s.errs.Add(1)
		if code == "" {
			code = "transport"
		}
	}
	s.mu.Lock()
	if s.byCode == nil {
		s.byCode = map[string]int64{}
	}
	s.byCode[code]++
	s.mu.Unlock()
}

func (s *opStats) report(withHist bool) *OpReport {
	r := &OpReport{
		Count:      s.count.Load(),
		Errors:     s.errs.Load(),
		Timeouts:   s.timeouts.Load(),
		Shed:       s.shed.Load(),
		Degraded:   s.degraded.Load(),
		P50Millis:  ms(s.hist.Quantile(0.50)),
		P90Millis:  ms(s.hist.Quantile(0.90)),
		P99Millis:  ms(s.hist.Quantile(0.99)),
		MeanMillis: s.hist.Mean() / 1e6,
		MaxMillis:  ms(s.hist.Max()),
	}
	s.mu.Lock()
	if len(s.byCode) > 0 {
		r.ErrorCodes = make(map[string]int64, len(s.byCode))
		for k, v := range s.byCode {
			r.ErrorCodes[k] = v
		}
	}
	s.mu.Unlock()
	if withHist {
		r.Histogram = s.hist.Buckets()
	}
	return r
}

func ms(ns uint64) float64 { return float64(ns) / 1e6 }

// Run drives the configured load until Duration elapses (or ctx is
// cancelled), waits for stragglers, and returns the report.
// withHistograms includes the raw buckets in the artifact.
func Run(ctx context.Context, cfg Config, withHistograms bool) (*Report, error) {
	cfg.defaults()
	cl := cfg.Client
	if cl == nil {
		if cfg.Target == "" {
			return nil, fmt.Errorf("loadgen: no target configured")
		}
		cl = client.New(cfg.Target)
	}

	// Pre-marshal the graphs and region IDs traffic cycles through, so
	// generation cost stays off the measured path.
	corpus := kernels.MustCompile()
	n := cfg.Regions
	if n > len(corpus.Regions) {
		n = len(corpus.Regions)
	}
	graphs := make([]api.RawObject, n)
	regions := make([]string, n)
	for i := 0; i < n; i++ {
		b, err := json.Marshal(corpus.Regions[i].Graph)
		if err != nil {
			return nil, fmt.Errorf("loadgen: marshal region graph: %w", err)
		}
		graphs[i], regions[i] = b, corpus.Regions[i].ID
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	wsum := cfg.PredictWeight + cfg.TuneWeight + cfg.JobWeight
	stats := map[string]*opStats{}
	for _, op := range []string{OpPredict, OpTune, OpJob} {
		stats[op] = &opStats{hist: telemetry.NewHistogram()}
	}
	var sent, shed atomic.Int64
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		// Poisson arrivals: exponential inter-arrival gaps.
		gap := time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		time.Sleep(gap)

		// Draw the whole request on the generator goroutine so the rng
		// stays single-threaded and the run is reproducible per seed.
		var op string
		switch w := rng.Float64() * wsum; {
		case w < cfg.PredictWeight:
			op = OpPredict
		case w < cfg.PredictWeight+cfg.TuneWeight:
			op = OpTune
		default:
			op = OpJob
		}
		machine := cfg.Machines[rng.Intn(len(cfg.Machines))]
		objective := cfg.Objectives[rng.Intn(len(cfg.Objectives))]
		scenario := cfg.Scenarios[rng.Intn(len(cfg.Scenarios))]
		region := rng.Intn(n)
		seed := rng.Uint64()

		select {
		case sem <- struct{}{}:
		default:
			shed.Add(1)
			continue
		}
		sent.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			st := stats[op]
			st.count.Add(1)
			rctx, cancel := ctx, func() {}
			if cfg.Timeout > 0 {
				rctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
			}
			defer cancel()
			t0 := time.Now()
			var err error
			switch op {
			case OpPredict:
				var out *api.PredictResponse
				out, err = cl.Predict(rctx, api.PredictRequest{
					Machine: machine, Objective: objective, Scenario: scenario,
					Graph: graphs[region],
				})
				if err == nil && out.Degraded {
					st.degraded.Add(1)
				}
			case OpTune:
				_, err = cl.Tune(rctx, api.TuneRequest{
					Machine: machine, Objective: objective, Scenario: scenario,
					Strategy: "bliss", RegionID: regions[region],
					Budget: cfg.Budget, Seed: seed,
				})
			case OpJob:
				var job *api.Job
				job, err = cl.TuneAsync(rctx, api.TuneRequest{
					Machine: machine, Objective: objective, Scenario: scenario,
					Strategy: "bliss", RegionID: regions[region],
					Budget: cfg.Budget, Seed: seed,
				})
				if err == nil {
					// The job op's latency is submit → terminal.
					_, err = cl.Wait(rctx, job.ID, 5*time.Millisecond)
				}
			}
			if err != nil {
				st.fail(err)
				return
			}
			st.hist.ObserveDuration(time.Since(t0))
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Target:      cfg.Target,
		OfferedRate: cfg.Rate,
		DurationSec: elapsed.Seconds(),
		Sent:        sent.Load(),
		Shed:        shed.Load(),
		Ops:         map[string]*OpReport{},
	}
	for op, st := range stats {
		r := st.report(withHistograms)
		rep.Ops[op] = r
		rep.Completed += r.Count - r.Errors - r.Timeouts - r.Shed
		rep.Errors += r.Errors
		rep.Timeouts += r.Timeouts
		rep.ShedByServer += r.Shed
		rep.Degraded += r.Degraded
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Completed) / elapsed.Seconds()
	}
	if math.IsNaN(rep.ThroughputRPS) {
		rep.ThroughputRPS = 0
	}
	return rep, nil
}
