package registry

import (
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/telemetry"
)

// serverTelemetry bundles the metric handles and trace recorder one
// serving process owns. Every handle is resolved once here, so the
// request path pays atomic increments, never registry lookups; scrape-
// time families (queue depths, cache counters) sample their sources
// through Func metrics instead of double-counting them.
type serverTelemetry struct {
	tel *telemetry.Registry
	rec *telemetry.Recorder

	batch *batcherObs
	jobs  *jobObs

	canaryScored   *telemetry.Counter
	canaryVerdicts *telemetry.CounterVec // verdict: promote | demote
	promotions     *telemetry.Counter

	trainDur *telemetry.HistogramVec // kind: train | retrain

	engineSessions *telemetry.CounterVec // by strategy
	engineEvals    *telemetry.CounterVec // by strategy
	measureRuns    *telemetry.Counter
}

// batcherObs is the shared micro-batching instrumentation: one set of
// handles across every live batcher of a server (per-model labels
// would be unbounded cardinality). depth tracks requests admitted but
// not yet collected into a window.
type batcherObs struct {
	depth   atomic.Int64
	shed    *telemetry.Counter
	wait    *telemetry.Histogram
	window  *telemetry.Histogram
	forward *telemetry.Histogram
	rec     *telemetry.Recorder
}

// jobObs instruments the async tune job store.
type jobObs struct {
	outcomes *telemetry.CounterVec // outcome: done | failed | cancelled
	rejected *telemetry.Counter
	dur      *telemetry.Histogram
}

// newServerTelemetry builds the registry server's observability plane
// and wires the scrape-time samplers into reg and jobs.
func newServerTelemetry(reg *Registry, jobs *JobStore) *serverTelemetry {
	tel := telemetry.New()
	st := &serverTelemetry{
		tel: tel,
		rec: telemetry.NewRecorder(0, 0),

		canaryScored: tel.Counter("pnp_canary_scored_total",
			"Live predicts shadow-scored by an in-flight canary."),
		canaryVerdicts: tel.CounterVec("pnp_canary_verdicts_total",
			"Canary rollout verdicts, by outcome.", "verdict"),
		promotions: tel.Counter("pnp_model_promotions_total",
			"Refreshed model versions promoted to serving."),

		trainDur: tel.HistogramVec("pnp_model_train_seconds",
			"Model training wall time, by kind (train = on-miss full recipe, retrain = incremental refresh).",
			telemetry.Seconds, telemetry.DurationBuckets, "kind"),

		engineSessions: tel.CounterVec("pnp_engine_sessions_total",
			"Autotune engine sessions run, by strategy.", "strategy"),
		engineEvals: tel.CounterVec("pnp_engine_evals_total",
			"Autotune engine candidate evaluations, by strategy.", "strategy"),
		measureRuns: tel.Counter("pnp_measure_runs_total",
			"Real kernel executions performed by measure runners."),
	}

	st.batch = &batcherObs{
		shed: tel.Counter("pnp_batch_shed_total",
			"Predict requests shed because the batch queue was full."),
		wait: tel.Histogram("pnp_batch_queue_wait_seconds",
			"Time from predict admission to its batch window running.",
			telemetry.Seconds, telemetry.DurationBuckets),
		window: tel.Histogram("pnp_batch_window_size",
			"Requests per batched forward pass.",
			telemetry.Units, telemetry.SizeBuckets),
		forward: tel.Histogram("pnp_batch_forward_seconds",
			"Batched forward pass wall time.",
			telemetry.Seconds, telemetry.DurationBuckets),
		rec: st.rec,
	}
	tel.GaugeFunc("pnp_batch_queue_depth",
		"Predict requests admitted but not yet collected into a window, across all batchers.",
		func() float64 { return float64(st.batch.depth.Load()) })

	st.jobs = &jobObs{
		outcomes: tel.CounterVec("pnp_jobs_total",
			"Async tune jobs finished, by outcome.", "outcome"),
		rejected: tel.Counter("pnp_jobs_rejected_total",
			"Async tune submissions rejected with queue_full."),
		dur: tel.Histogram("pnp_job_duration_seconds",
			"Async tune job wall time from start to finish.",
			telemetry.Seconds, telemetry.DurationBuckets),
	}
	jobs.setObs(st.jobs)
	tel.GaugeFunc("pnp_jobs_queued",
		"Async tune jobs waiting for a worker.",
		func() float64 { return float64(jobs.Stats().Queued) })
	tel.GaugeFunc("pnp_jobs_running",
		"Async tune jobs currently running.",
		func() float64 { return float64(jobs.Stats().Running) })

	// Registry traffic counters already live in reg.Stats (healthz reads
	// them too); expose them as sampled counters rather than tracking
	// the same events twice.
	regCounter := func(name, help string, read func(Stats) int64) {
		tel.CounterFunc(name, help, func() float64 { return float64(read(reg.Stats())) })
	}
	regCounter("pnp_registry_cache_hits_total",
		"Model resolves served from the in-memory LRU cache.",
		func(s Stats) int64 { return s.Hits })
	regCounter("pnp_registry_disk_loads_total",
		"Model resolves deserialized from the on-disk store.",
		func(s Stats) int64 { return s.DiskLoads })
	regCounter("pnp_registry_models_trained_total",
		"Models trained on a full miss.",
		func(s Stats) int64 { return s.Trained })
	regCounter("pnp_registry_models_fetched_total",
		"Models fetched from a peer replica on a miss.",
		func(s Stats) int64 { return s.Fetched })
	regCounter("pnp_registry_models_imported_total",
		"Models installed via blob import (peer fetches included).",
		func(s Stats) int64 { return s.Imported })
	regCounter("pnp_registry_evictions_total",
		"Models evicted from the LRU cache.",
		func(s Stats) int64 { return s.Evicted })
	regCounter("pnp_registry_persist_failures_total",
		"Trained models the store failed to persist.",
		func(s Stats) int64 { return s.PersistFailures })

	reg.SetObserver(func(kind string, d time.Duration) {
		st.trainDur.With(kind).ObserveDuration(d)
	})
	return st
}

// SetTraceLogging samples every Nth request's root span into slog
// (0 disables) — the pnpserve -trace-log flag.
func (s *Server) SetTraceLogging(every int) {
	s.tele.rec.SetLogging(slog.Default(), every)
}

// handleTrace serves GET /v1/traces/{id}: the span timeline this
// process recorded for one request, keyed by its X-Request-ID. Traces
// are a bounded in-memory window — an unknown ID means the request
// never reached this process or has been evicted.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if info := requireMethod(r, http.MethodGet); info != nil {
		api.WriteError(w, r, info)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, api.PathTraces+"/")
	if id == "" || strings.Contains(id, "/") {
		api.WriteError(w, r, api.Errorf(api.CodeNotFound, "no route %s", r.URL.Path))
		return
	}
	tr, ok := s.tele.rec.Get(id)
	if !ok {
		api.WriteError(w, r, api.Errorf(api.CodeNotFound,
			"no trace %q (unknown, or evicted from the bounded trace window)", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, tr)
}
