// Package api is the versioned wire contract of the pnptuner serving
// API: every request, response, and error body exchanged over HTTP lives
// here, shared by the server (internal/registry) and the Go client SDK
// (internal/client) so the two can never drift apart, plus the small
// HTTP chassis both serving tiers frame their responses with (http.go).
// Beyond the standard library it depends only on internal/telemetry,
// for the X-Request-ID header its error envelopes echo.
//
// # Versioning
//
// All endpoints are mounted under the Version prefix ("/v1"). Breaking
// changes to any type in this package require a new version prefix; the
// old prefix keeps serving the old contract for at least one release.
// Paths outside a version prefix, the pre-versioning /predict, /tune,
// /healthz and /models included, answer the not_found envelope.
//
// # Errors
//
// Every non-2xx response carries an ErrorBody envelope with a stable
// machine-readable code (see the Code* constants); clients switch on the
// code, never on message text.
package api

import "time"

// Version is the current API version prefix.
const Version = "/v1"

// Endpoint paths under Version. PathJobs and PathTraces are prefixes:
// one job is addressed as PathJobs + "/" + id, one request's span
// timeline as PathTraces + "/" + traceID (the X-Request-ID the server
// echoed).
const (
	PathPredict = Version + "/predict"
	PathTune    = Version + "/tune"
	PathJobs    = Version + "/jobs"
	PathModels  = Version + "/models"
	PathHealthz = Version + "/healthz"
	PathTraces  = Version + "/traces"
)

// PathModelBlob returns the export/import endpoint for one model's
// serialized blob: GET streams the content-addressed bytes, PUT imports
// them into the replica's store. This is how shared-nothing replicas
// replicate a model one of them trained.
func PathModelBlob(id string) string {
	return PathModels + "/" + id + "/blob"
}

// PathModel returns the detail endpoint for one model: GET answers a
// ModelDetail with the serving version, accumulated measurement counts,
// and the version history.
func PathModel(id string) string {
	return PathModels + "/" + id
}

// Request ceilings, part of the public contract: a serving deployment
// must not let one client exhaust memory or stall the shared batch
// window. Corpus graphs are hundreds of nodes; these bounds are orders
// of magnitude above any legitimate use.
const (
	// MaxRequestBytes bounds any request body.
	MaxRequestBytes = 8 << 20
	// MaxGraphNodes / MaxGraphEdges bound one prediction graph; beyond
	// them the server answers CodeGraphTooLarge.
	MaxGraphNodes = 1 << 19
	MaxGraphEdges = 1 << 21
	// MaxTuneBudget bounds one tuning session's replay executions;
	// beyond it the server answers CodeBudgetExceeded.
	MaxTuneBudget = 256
	// MaxMeasureBudget bounds one tuning session's real executions on
	// the simulated hardware (TuneRequest.MeasureBudget). Real runs are
	// far costlier than replay lookups, so the ceiling is its own knob.
	MaxMeasureBudget = 512
	// MaxBlobBytes bounds one serialized model blob on the import path
	// (PUT model blob). Far above any real model; it only exists so a
	// malicious peer cannot stream unbounded bytes into a replica.
	MaxBlobBytes = 1 << 29
)

// PredictRequest is the POST /v1/predict body. Graph is the programl
// JSON export; node tokens are re-annotated server-side from the corpus
// vocabulary, so clients only need node texts. Counters feed models
// trained with dynamic features and must be omitted otherwise.
type PredictRequest struct {
	Machine   string    `json:"machine"`
	Objective string    `json:"objective"`
	Scenario  string    `json:"scenario,omitempty"` // default "full"
	Counters  []float64 `json:"counters,omitempty"`
	// Graph is the programl.Graph JSON export, kept raw so this package
	// stays dependency-free, and last, so the SDK can append it as it is.
	// The gate scans it for region_id and valid syntax; the replica
	// decodes it in the same pass as the rest of the request.
	Graph RawObject `json:"graph"`
}

// RawObject is a pass-through JSON value, the api-local equivalent of
// json.RawMessage (redeclared so the package stays import-light and the
// field marshals verbatim in both directions).
type RawObject []byte

// MarshalJSON returns r verbatim (or null when empty).
func (r RawObject) MarshalJSON() ([]byte, error) {
	if len(r) == 0 {
		return []byte("null"), nil
	}
	return r, nil
}

// UnmarshalJSON stores data verbatim.
func (r *RawObject) UnmarshalJSON(data []byte) error {
	*r = append((*r)[:0], data...)
	return nil
}

// Pick is one recommended configuration.
type Pick struct {
	CapW        float64 `json:"cap_w"`
	ConfigIndex int     `json:"config_index"`
	Config      string  `json:"config"`
}

// PredictResponse is the /v1/predict reply: one pick per power cap for
// the time objective, a single joint (cap, config) pick for EDP.
type PredictResponse struct {
	RegionID  string `json:"region_id"`
	Machine   string `json:"machine"`
	Objective string `json:"objective"`
	Scenario  string `json:"scenario"`
	Picks     []Pick `json:"picks"`
	// ModelVersion is the version of the model that served the picks —
	// the initial training is 1 and every promoted refresh retrain
	// increments it.
	ModelVersion int `json:"model_version,omitempty"`
	// Degraded marks an answer the gate produced without a serving
	// replica (all down, draining, or unreachable): better than a 503
	// for a caller that just needs a configuration, but not a live model
	// prediction. DegradedSource says which fallback answered —
	// "cache" (last-known-good response for this exact graph) or
	// "heuristic" (the machine's default configuration per cap).
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedSource string `json:"degraded_source,omitempty"`
}

// TuneRequest is the POST /v1/tune body: run a bounded autotune engine
// session for one corpus region. Strategies "gnn" and "hybrid" resolve
// the (machine, objective, scenario) model through the registry and
// shortlist through the micro-batcher; "bliss" and "opentuner" are
// model-free searches. The evaluator is noisy dataset replay — the
// simulated stand-in for executing the region under RAPL.
type TuneRequest struct {
	Machine   string `json:"machine"`
	Objective string `json:"objective"`
	Strategy  string `json:"strategy"`
	Scenario  string `json:"scenario,omitempty"` // default "full"
	RegionID  string `json:"region_id"`
	// Budget is the executions granted per tuning task (0 = the
	// strategy's default; capped at MaxTuneBudget).
	Budget int `json:"budget,omitempty"`
	// Seed decorrelates tuning runs (0 = the region's corpus seed).
	Seed uint64 `json:"seed,omitempty"`
	// MeasureBudget grants the session real executions on the simulated
	// hardware instead of dataset replay: search strategies spend it
	// measuring candidates under their RAPL caps (split across the
	// session's heads), the zero-execution "gnn" strategy spends it
	// verifying its picks. Every completed — or cancelled — session
	// feeds its samples back for incremental model refresh. 0 keeps the
	// classic replay evaluator; capped at MaxMeasureBudget.
	MeasureBudget int `json:"measure_budget,omitempty"`
	// Async submits the session as a job: the server answers 202 with a
	// Job immediately and the session runs off-request; poll
	// GET /v1/jobs/{id} for status/trace/result. The finished job's
	// Result is bit-identical to the synchronous response for the same
	// request.
	Async bool `json:"async,omitempty"`
}

// TracePoint is one measured candidate of a tuning session, in
// measurement order.
type TracePoint struct {
	ConfigIndex int     `json:"config_index"`
	Value       float64 `json:"value"`
}

// TunePick is one recommended configuration with its session cost,
// quality, and full measurement trace.
type TunePick struct {
	CapW        float64 `json:"cap_w"`
	ConfigIndex int     `json:"config_index"`
	Config      string  `json:"config"`
	Evals       int     `json:"evals"`
	// OracleFrac is the achieved fraction of the exhaustive-search
	// optimum (1 = oracle).
	OracleFrac float64 `json:"oracle_frac"`
	// Trace is the session's (config, value) measurement sequence; with
	// the deterministic replay evaluator it is reproducible from
	// (strategy, seed, budget) alone. Empty for zero-execution sessions.
	Trace []TracePoint `json:"trace,omitempty"`
}

// TuneResponse is the synchronous /v1/tune reply (and the Result of a
// finished async Job): one pick per power cap for the time objective, a
// single joint pick otherwise.
type TuneResponse struct {
	RegionID  string     `json:"region_id"`
	Machine   string     `json:"machine"`
	Objective string     `json:"objective"`
	Strategy  string     `json:"strategy"`
	Budget    int        `json:"budget"`
	Picks     []TunePick `json:"picks"`
	// ModelVersion is the serving model version that shortlisted for the
	// session (model-driven strategies only).
	ModelVersion int `json:"model_version,omitempty"`
	// MeasuredRuns counts the real executions the session took
	// (MeasureBudget > 0 only); Samples is each one in execution order.
	MeasuredRuns int              `json:"measured_runs,omitempty"`
	Samples      []MeasuredSample `json:"samples,omitempty"`
}

// MeasuredSample is one real execution of a tuning session: the
// configuration run, the RAPL cap it ran under, and what the hardware
// reported.
type MeasuredSample struct {
	CapW        float64 `json:"cap_w"`
	ConfigIndex int     `json:"config_index"`
	Config      string  `json:"config"`
	TimeSec     float64 `json:"time_sec"`
	// EnergyJ is the package+DRAM energy as read back from the wrapping
	// RAPL counter.
	EnergyJ float64 `json:"energy_j"`
	// Value is the objective value the search observed for this run.
	Value     float64 `json:"value"`
	Throttled bool    `json:"throttled,omitempty"`
}

// ModelKey identifies one servable model.
type ModelKey struct {
	Machine   string `json:"machine"`
	Scenario  string `json:"scenario"`
	Objective string `json:"objective"`
}

// ModelInfo describes one known model in /v1/models listings. Meta is
// the model's provenance metadata (core.ModelMeta), kept raw here so the
// contract package stays dependency-free.
type ModelInfo struct {
	Key    ModelKey  `json:"key"`
	ID     string    `json:"id"`
	Cached bool      `json:"cached"`
	OnDisk bool      `json:"on_disk"`
	Meta   RawObject `json:"meta"`
	// Replica is the base URL of the replica holding this model, set
	// only in gate-merged listings (single replicas leave it empty).
	Replica string `json:"replica,omitempty"`
}

// Version-history event names in ModelDetail.History.
const (
	// EventTrained marks a version coming out of training — the initial
	// resolve or a background refresh retrain.
	EventTrained = "trained"
	// EventPromoted marks a refreshed version winning its canary and
	// taking over serving.
	EventPromoted = "promoted"
	// EventDemoted marks a refreshed version losing its canary and being
	// discarded; the prior version keeps serving.
	EventDemoted = "demoted"
)

// VersionEvent is one entry in a model's version history.
type VersionEvent struct {
	Version int    `json:"version"`
	Event   string `json:"event"`
	// Samples is how many measured executions the event's retrain
	// consumed (EventTrained of a refresh only).
	Samples int       `json:"samples,omitempty"`
	At      time.Time `json:"at"`
}

// ModelDetail is the GET /v1/models/{id} reply: one model's serving
// version, its measurement feed, and the version history of the
// measure→learn loop.
type ModelDetail struct {
	Key ModelKey `json:"key"`
	ID  string   `json:"id"`
	// Version is the model version currently serving (1 = initial
	// training, incremented by every promoted refresh).
	Version int  `json:"version"`
	Cached  bool `json:"cached"`
	OnDisk  bool `json:"on_disk"`
	// Samples is how many measured executions the serving version has
	// incorporated; PendingSamples counts those accumulated since, not
	// yet consumed by a refresh retrain.
	Samples        int `json:"samples"`
	PendingSamples int `json:"pending_samples"`
	// SampleRegions is the per-region measurement count feeding this key.
	SampleRegions map[string]int `json:"sample_regions,omitempty"`
	// CanaryVersion is the shadow version currently under canary scoring
	// (0 = no canary in flight).
	CanaryVersion int            `json:"canary_version,omitempty"`
	History       []VersionEvent `json:"history,omitempty"`
	// Replica is set by the gate on merged lookups: the replica whose
	// answer won (highest version).
	Replica string `json:"replica,omitempty"`
}

// JobStats is the async job subsystem's snapshot in Health.
type JobStats struct {
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
}

// Health is the GET /v1/healthz reply: liveness plus traffic counters.
type Health struct {
	Status          string   `json:"status"`
	UptimeSec       float64  `json:"uptime_sec"`
	Served          int64    `json:"served"`
	Batchers        int      `json:"batchers"`
	CacheHits       int64    `json:"cache_hits"`
	DiskLoads       int64    `json:"disk_loads"`
	ModelsTrained   int64    `json:"models_trained"`
	ModelsFetched   int64    `json:"models_fetched"`
	ModelsImported  int64    `json:"models_imported"`
	Evicted         int64    `json:"evicted"`
	PersistFailures int64    `json:"persist_failures"`
	Jobs            JobStats `json:"jobs"`
}

// Replica health states reported by the gate. A replica is routable
// while ReplicaUp or ReplicaHalfOpen; ReplicaDown replicas receive no
// traffic until a background probe succeeds.
const (
	ReplicaUp       = "up"
	ReplicaHalfOpen = "half-open"
	ReplicaDown     = "down"
)

// ReplicaStatus is one replica's entry in the gate's health reply.
type ReplicaStatus struct {
	// Index is the replica's stable position in the gate's configured
	// replica list; job IDs issued through the gate are prefixed
	// "r<index>-" so polls route back to the owning replica.
	Index int    `json:"index"`
	URL   string `json:"url"`
	State string `json:"state"`
	// ConsecutiveFails counts transport-level failures (traffic or
	// probe) since the last success; FailThreshold of them mark the
	// replica down.
	ConsecutiveFails int `json:"consecutive_fails"`
	// Probes / ProbeFailures count background health probes.
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
}

// GateHealth is the gate's GET /v1/healthz reply: the gate is not a
// replica, so instead of model counters it reports the cluster view.
type GateHealth struct {
	Status    string          `json:"status"`
	UptimeSec float64         `json:"uptime_sec"`
	Served    int64           `json:"served"`
	Replicas  []ReplicaStatus `json:"replicas"`
	// Retries counts requests the gate re-sent to another replica after
	// a retryable failure; Failovers counts requests that ultimately
	// succeeded on a non-first-choice replica.
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	// Hedges counts predicts the gate speculatively duplicated onto the
	// next preference-order replica after the hedge delay; HedgeWins
	// counts those where the hedge answered first.
	Hedges    int64 `json:"hedges,omitempty"`
	HedgeWins int64 `json:"hedge_wins,omitempty"`
	// Degraded counts predicts answered from the degraded path (cache or
	// heuristic) because no replica could serve.
	Degraded int64 `json:"degraded,omitempty"`
}

// Job statuses. Terminal statuses are JobDone, JobFailed, JobCancelled.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Job is one async tuning session: returned by POST /v1/tune with
// async:true (202) and polled via GET /v1/jobs/{id}.
type Job struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Request echoes the submitted tune request (with Async cleared —
	// the job's result is the synchronous response for this request).
	Request    TuneRequest `json:"request"`
	CreatedAt  time.Time   `json:"created_at"`
	StartedAt  *time.Time  `json:"started_at,omitempty"`
	FinishedAt *time.Time  `json:"finished_at,omitempty"`
	// CancelRequested is set once DELETE /v1/jobs/{id} has been seen; a
	// running session stops at its next measurement and the status then
	// becomes JobCancelled.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Result is the finished session's response (status JobDone only).
	Result *TuneResponse `json:"result,omitempty"`
	// Error is why the session failed (status JobFailed only).
	Error *ErrorInfo `json:"error,omitempty"`
}

// Terminal reports whether the job has reached a final status.
func (j *Job) Terminal() bool {
	switch j.Status {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}
