package registry

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"pnptuner/internal/api"
	"pnptuner/internal/autotune"
	"pnptuner/internal/bliss"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/measure"
	"pnptuner/internal/opentuner"
	"pnptuner/internal/papi"
)

// tuneStrategies maps the wire names to their default budgets.
var tuneStrategies = map[string]int{
	"gnn":       0,
	"hybrid":    autotune.HybridK,
	"bliss":     bliss.Budget,
	"opentuner": opentuner.Budget,
}

// tuneSession is one fully validated tune request, ready to run. The
// split matters for async jobs: prepTune runs on the request goroutine
// so malformed requests fail with 4xx before a job is ever created,
// while run — which may train a model and replays engine sessions —
// runs wherever the caller wants (inline for sync, a job-store worker
// for async) under a cancellable context.
type tuneSession struct {
	s   *Server
	req api.TuneRequest // normalized: scenario defaulted, budget resolved
	// targets holds one engine session each: per cap for time, one joint
	// session for edp and energy.
	targets []core.Target
	d       *dataset.Dataset
	rd      *dataset.RegionData
	seed    uint64
}

// prepTune validates req and binds it to its corpus region. Every error
// here is the client's (a stable 4xx code); failures after it are
// server-side.
func (s *Server) prepTune(req api.TuneRequest) (*tuneSession, *api.ErrorInfo) {
	defBudget, ok := tuneStrategies[req.Strategy]
	if !ok {
		return nil, api.Errorf(api.CodeBadRequest,
			"unknown strategy %q (valid: gnn, bliss, opentuner, hybrid)", req.Strategy)
	}
	if req.Budget < 0 || req.Budget > api.MaxTuneBudget {
		return nil, api.Errorf(api.CodeBudgetExceeded,
			"budget %d outside [0, %d]", req.Budget, api.MaxTuneBudget)
	}
	if req.MeasureBudget < 0 || req.MeasureBudget > api.MaxMeasureBudget {
		return nil, api.Errorf(api.CodeBudgetExceeded,
			"measure_budget %d outside [0, %d]", req.MeasureBudget, api.MaxMeasureBudget)
	}
	if req.Budget == 0 {
		req.Budget = defBudget
	}
	if req.Scenario == "" {
		req.Scenario = ScenarioFull
	}
	modelDriven := req.Strategy == "gnn" || req.Strategy == "hybrid"

	// Objective validation: model strategies serve the registry's
	// objectives; the searches additionally tune raw energy.
	switch {
	case slices.Contains(core.TrainedObjectives, req.Objective):
	case req.Objective == "energy":
		if modelDriven {
			return nil, api.Errorf(api.CodeBadRequest,
				"objective \"energy\" has no trained model; use strategy bliss or opentuner")
		}
	default:
		return nil, api.Errorf(api.CodeBadRequest, "unknown objective %q (valid: %s, energy)",
			req.Objective, strings.Join(core.TrainedObjectives, ", "))
	}
	if modelDriven {
		key := Key{Machine: req.Machine, Scenario: req.Scenario, Objective: req.Objective}
		if err := key.Validate(); err != nil {
			return nil, api.Errorf(api.CodeBadRequest, "%v", err)
		}
	}

	m, err := hw.ByName(req.Machine)
	if err != nil {
		return nil, api.Errorf(api.CodeBadRequest, "%v", err)
	}
	// The exhaustive sweep backing the replay evaluator; built once per
	// machine and cached process-wide.
	d, err := dataset.Build(m)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "%v", err)
	}
	rd := d.Region(req.RegionID)
	if rd == nil {
		return nil, api.Errorf(api.CodeRegionNotFound,
			"unknown region %q: tuning replays the measurement corpus, so the region must be a corpus region ID", req.RegionID)
	}
	seed := req.Seed
	if seed == 0 {
		seed = rd.Region.Seed
	}
	targets, err := core.ObjectiveTargets(d.Space, req.Objective)
	if err != nil {
		targets = []core.Target{{Obj: autotune.Energy{}}} // search-only
	}
	return &tuneSession{s: s, req: req, targets: targets, d: d, rd: rd, seed: seed}, nil
}

// run executes the session's engine sessions under ctx: model-driven
// strategies first shortlist through the micro-batcher (training the
// model on first use), then each head's session runs the
// propose/observe loop, which checks ctx before every measurement. The
// response is bit-identical for the same request whether run inline
// (sync /v1/tune) or on a job-store worker (async).
func (ts *tuneSession) run(ctx context.Context) (*api.TuneResponse, *api.ErrorInfo) {
	req, d, rd := ts.req, ts.d, ts.rd
	modelDriven := req.Strategy == "gnn" || req.Strategy == "hybrid"

	// A measurement budget swaps the replay evaluator for real
	// executions on the simulated hardware, split evenly across the
	// session's heads (one per cap for the time objective).
	heads := len(ts.targets)
	var runner *measure.Runner
	share := 0
	if req.MeasureBudget > 0 {
		runner = measure.NewRunner(d.Machine, rd.Region, d.Space, ts.seed, -1)
		// Deadline propagation into the engine: once the request budget is
		// spent, measured runs stop consuming (simulated) machine time.
		runner.Bind(ctx)
		runner.OnSample(func(measure.Sample) { ts.s.tele.measureRuns.Inc() })
		if share = req.MeasureBudget / heads; share < 1 {
			share = 1
		}
		defer func() {
			// Even a cancelled session's real runs are real data: feed
			// whatever was measured back for refresh retraining.
			// Objective "energy" has no trained model to refresh.
			if slices.Contains(core.TrainedObjectives, req.Objective) {
				key := Key{Machine: req.Machine, Scenario: req.Scenario, Objective: req.Objective}
				ts.s.recordMeasured(key, runner.DatasetSamples())
			}
		}()
	}

	// Model-driven strategies shortlist through the micro-batcher (the
	// model is not goroutine-safe; the batcher is its serialization
	// point). k=1 is the pure static pick.
	var shortlists [][]int
	modelVersion := 0
	if modelDriven {
		key := Key{Machine: req.Machine, Scenario: req.Scenario, Objective: req.Objective}
		k := 1
		if req.Strategy == "hybrid" {
			k = req.Budget
			if runner != nil {
				k = share
			}
		}
		var err error
		shortlists, modelVersion, err = ts.s.modelShortlists(ctx, key, rd, k)
		if err != nil {
			return nil, resolveErrInfo(err)
		}
	}

	budget := req.Budget
	if runner != nil && req.Strategy != "gnn" {
		budget = share
	}
	entry := tuneEntry(req.Strategy, budget, shortlists)
	if runner != nil && req.Strategy != "gnn" {
		entry.Eval = func(_ *dataset.RegionData, t autotune.Task) autotune.Evaluator {
			return runner.Evaluator(t.Obj)
		}
	}
	// Telemetry taps: per-strategy handles resolve once per session, the
	// engine loop pays one atomic add per measurement.
	sessionC := ts.s.tele.engineSessions.With(req.Strategy)
	evalC := ts.s.tele.engineEvals.With(req.Strategy)
	entry.Observe = func(int, float64) { evalC.Inc() }
	resp := &api.TuneResponse{
		RegionID:     req.RegionID,
		Machine:      req.Machine,
		Objective:    req.Objective,
		Strategy:     req.Strategy,
		Budget:       entry.Budget,
		ModelVersion: modelVersion,
	}
	session := func(obj autotune.Objective) autotune.Result {
		sessionC.Inc()
		task := autotune.Task{
			Problem:  autotune.Problem{Obj: obj, Space: d.Space, Seed: ts.seed},
			RegionID: req.RegionID,
		}
		return autotune.RunEntryContext(ctx, entry, rd, task)
	}
	// One session per target, mirroring /v1/predict's shape.
	for _, t := range ts.targets {
		if ctx.Err() != nil {
			return nil, cancelInfo(ctx)
		}
		res := session(t.Obj)
		capW, cfg := autotune.PickAt(d.Space, t.Obj, res.Best)
		_, oracleV := autotune.Oracle(rd, d.Space, t.Obj)
		resp.Picks = append(resp.Picks, api.TunePick{
			CapW:        capW,
			ConfigIndex: res.Best,
			Config:      cfg.String(),
			Evals:       res.Evals,
			OracleFrac:  oracleV / t.Obj.Value(rd, d.Space, res.Best),
			Trace:       tracePoints(res.Trace),
		})
	}
	// The zero-execution gnn strategy spends its measurement budget
	// verifying the picks: one real run each, as far as the budget goes.
	if runner != nil && req.Strategy == "gnn" {
		for i, pick := range resp.Picks {
			if runner.Runs() >= req.MeasureBudget || ctx.Err() != nil {
				break
			}
			runner.Evaluator(ts.targets[i].Obj).Measure(pick.ConfigIndex)
		}
	}
	if ctx.Err() != nil {
		// Cancelled mid-way: a truncated session's picks must not
		// masquerade as the real result.
		return nil, cancelInfo(ctx)
	}
	if runner != nil {
		resp.MeasuredRuns = runner.Runs()
		resp.Samples = wireSamples(runner.Samples())
	}
	return resp, nil
}

// wireSamples converts a measurement session's samples to the contract
// shape.
func wireSamples(ss []measure.Sample) []api.MeasuredSample {
	out := make([]api.MeasuredSample, len(ss))
	for i, s := range ss {
		out[i] = api.MeasuredSample{
			CapW:        s.CapW,
			ConfigIndex: s.ConfigIndex,
			Config:      s.Config,
			TimeSec:     s.Result.TimeSec,
			EnergyJ:     s.EnergyJ,
			Value:       s.Value,
			Throttled:   s.Result.Throttled,
		}
	}
	return out
}

// tracePoints converts an engine trace to the wire shape.
func tracePoints(trace []autotune.Observation) []api.TracePoint {
	if len(trace) == 0 {
		return nil
	}
	out := make([]api.TracePoint, len(trace))
	for i, o := range trace {
		out[i] = api.TracePoint{ConfigIndex: o.Config, Value: o.Value}
	}
	return out
}

// tuneEntry builds the engine entry for a tune session. shortlists is
// the per-head model proposal list for model-driven strategies (head =
// cap index for the time objective, a single joint head otherwise).
func tuneEntry(strategy string, budget int, shortlists [][]int) autotune.Entry {
	switch strategy {
	case "gnn":
		return autotune.FixedEntry("gnn", func(t autotune.Task) int {
			return shortlists[core.HeadOf(t.Obj)][0]
		})
	case "hybrid":
		e := autotune.HybridEntry("hybrid", func(t autotune.Task) []int {
			return shortlists[core.HeadOf(t.Obj)]
		})
		e.Budget = budget
		return e
	case "bliss":
		e := bliss.Entry("bliss")
		e.Budget = budget
		return e
	default:
		e := opentuner.Entry("opentuner")
		e.Budget = budget
		return e
	}
}

// modelShortlists resolves the key's model and returns each head's top-k
// classes for the region's graph, routed through the micro-batcher so
// tuning traffic batches with /v1/predict traffic on the shared model,
// plus the serving model's version. Like handlePredict, it looks up a
// batcher closed under it once more.
func (s *Server) modelShortlists(ctx context.Context, key Key, rd *dataset.RegionData, k int) ([][]int, int, error) {
	for retry := true; ; retry = false {
		b, err := s.batcherFor(ctx, key)
		if err != nil {
			return nil, 0, err
		}
		var extras []float64
		switch b.extraDim {
		case 0:
		case papi.NumFeatures:
			f := rd.Counters.Features()
			extras = f[:]
		default:
			return nil, 0, fmt.Errorf("registry: model %s wants %d extra features; tuning can only supply corpus counters", key, b.extraDim)
		}
		lists, err := b.PredictTopKContext(ctx, Request{Graph: rd.Region.Graph, Extras: extras}, k)
		if retry && errors.Is(err, ErrClosed) {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		return lists, b.Meta.Version, nil
	}
}

// cancelInfo maps a mid-session context failure to its wire error: a
// spent deadline budget is typed deadline_exceeded (retrying cannot
// un-spend it), everything else is the retryable unavailable.
func cancelInfo(ctx context.Context) *api.ErrorInfo {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return api.Errorf(api.CodeDeadlineExceeded, "request budget spent mid-session")
	}
	return api.Errorf(api.CodeUnavailable, "session cancelled: %v", ctx.Err())
}

// resolveErrInfo maps a model-resolve or batcher failure to its wire
// error.
func resolveErrInfo(err error) *api.ErrorInfo {
	switch {
	case errors.Is(err, ErrModelNotFound):
		return api.Errorf(api.CodeModelNotFound, "%v", err)
	case errors.Is(err, ErrClosed):
		return api.Errorf(api.CodeUnavailable, "%v", err)
	case errors.Is(err, ErrOverloaded):
		return api.Errorf(api.CodeOverloaded, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return api.Errorf(api.CodeDeadlineExceeded, "request budget spent before the model answered")
	case errors.Is(err, context.Canceled):
		return api.Errorf(api.CodeUnavailable, "%v", err)
	}
	return api.Errorf(api.CodeInternal, "%v", err)
}
