package registry

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/autotune"
	"pnptuner/internal/core"
	"pnptuner/internal/programl"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/vocab"
)

// Server is the HTTP face of the registry, serving the versioned v1
// contract (internal/api): a JSON predict endpoint that funnels
// concurrent requests through per-model micro-batchers, sync and async
// tuning sessions (the latter on a bounded job store), plus health and
// model introspection. Live batchers are LRU-bounded by the registry's
// cache capacity, so the operator's -cache flag bounds resident models,
// not just registry entries.
//
// Routes:
//
//	POST   /v1/predict           micro-batched model predictions
//	POST   /v1/tune              engine session; async:true → 202 + Job
//	GET    /v1/jobs              list retained jobs
//	GET    /v1/jobs/{id}         poll one job's status/trace/result
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/models            registry contents
//	GET    /v1/models/{id}       one model's version + refresh detail
//	GET    /v1/models/{id}/blob  export a model's serialized blob
//	PUT    /v1/models/{id}/blob  import a peer's serialized blob
//	GET    /v1/healthz           liveness and traffic counters
type Server struct {
	reg      *Registry
	vocab    *vocab.Vocabulary
	maxBatch int
	start    time.Time
	jobs     *JobStore
	tele     *serverTelemetry
	metrics  *telemetry.RouteMetrics
	inflight int

	refresh RefreshConfig

	mu       sync.Mutex
	closed   bool
	batchers *lruCache // Key.ID() → *Batcher
	// canaries holds in-flight shadow rollouts (canary.go): the refreshed
	// model scoring against the serving one on live predict traffic.
	// refreshing marks keys with a background retrain under way.
	canaries   map[string]*canary
	refreshing map[string]bool

	served atomic.Int64
	// lookedUp, when set, sees each batcher batcherFor hands out from
	// the cache: a test hook that can close it before its caller predicts.
	lookedUp func(*Batcher)
}

// ServerConfig tunes a server. Zero values get defaults.
type ServerConfig struct {
	// MaxBatch bounds every model's micro-batching window size
	// (default 16). A window is whatever is queued when the model is
	// free, up to this bound; it never waits for company.
	MaxBatch int
	// Jobs bounds the async tune job subsystem.
	Jobs JobStoreConfig
	// Refresh tunes the measure→learn loop (canary.go); the zero value
	// disables it.
	Refresh RefreshConfig
	// MaxInflight bounds each heavy route's (predict, tune) concurrent
	// requests; past it the route sheds with CodeOverloaded before any
	// work (default 1024, negative = unlimited).
	MaxInflight int
}

// NewServer builds a server over reg. v is the (frozen) corpus
// vocabulary incoming graphs are token-annotated with.
func NewServer(reg *Registry, v *vocab.Vocabulary, cfg ServerConfig) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.Refresh.CanaryWindow <= 0 {
		cfg.Refresh.CanaryWindow = 16
	}
	if cfg.Refresh.Epochs <= 0 {
		cfg.Refresh.Epochs = 4
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 1024
	}
	jobs := NewJobStore(cfg.Jobs)
	tele := newServerTelemetry(reg, jobs)
	return &Server{
		reg:        reg,
		vocab:      v,
		maxBatch:   cfg.MaxBatch,
		refresh:    cfg.Refresh,
		start:      time.Now(),
		inflight:   cfg.MaxInflight,
		jobs:       jobs,
		tele:       tele,
		metrics:    telemetry.NewRouteMetrics(tele.tel, "pnp"),
		batchers:   newLRU(reg.Capacity()),
		canaries:   map[string]*canary{},
		refreshing: map[string]bool{},
	}
}

// Handler returns the route mux: the v1 surface, and the request-ID +
// per-route-metrics middleware around everything.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.metrics.Wrap(pattern, h))
	}
	// The heavy routes each get one limiter. Cheap routes (jobs, models,
	// healthz) stay unlimited so overload never blinds the operator or
	// wedges the refresh loop.
	route(api.PathPredict, withLimit(s.inflight, s.handlePredict))
	route(api.PathTune, withLimit(s.inflight, s.handleTune))
	route(api.PathJobs, s.handleJobs)
	route(api.PathJobs+"/", s.handleJob)
	route(api.PathModels, s.handleModels)
	route(api.PathModels+"/", s.handleModelBlob)
	route(api.PathHealthz, s.handleHealthz)
	route(api.PathTraces+"/", s.handleTrace)
	// /metrics stays outside the route wrapper: scrapes must not skew the
	// pnp_http_* families they read, and the path is unversioned by
	// convention (Prometheus scrapers expect exactly /metrics).
	mux.Handle("/metrics", s.tele.tel.Handler())

	mux.HandleFunc("/", s.metrics.Wrap("(unmatched)", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, r, api.Errorf(api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
	}))
	return telemetry.WithRequestID(s.tele.rec, api.WithDeadline(mux))
}

// Shutdown stops the server gracefully: the job store drains (queued
// jobs cancel immediately, running sessions finish until ctx expires and
// are then cancelled via their contexts), then every batcher closes and
// further requests get CodeUnavailable. Call after http.Server.Shutdown
// so no new requests race the drain.
func (s *Server) Shutdown(ctx context.Context) {
	// Jobs first: running sessions shortlist through the batchers, which
	// must outlive them.
	s.jobs.Stop(ctx)

	s.mu.Lock()
	s.closed = true
	evicted := s.batchers.clear()
	canaries := s.canaries
	s.canaries = map[string]*canary{}
	s.mu.Unlock()
	for _, v := range evicted {
		v.(*Batcher).Close()
	}
	for _, c := range canaries {
		c.halt()
		c.b.Close()
	}
}

// Close stops the server immediately: running jobs are cancelled rather
// than drained. A handler racing Close gets CodeUnavailable instead of
// leaking a goroutine.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
}

// newServingBatcher builds the batcher for one registry entry. The
// batcher forwards on a float32 snapshot converted once here, so the
// entry's float64 model is only ever read: it stays free for background
// retraining, export and a successor batcher's own snapshot.
func (s *Server) newServingBatcher(entry *Entry) (*Batcher, error) {
	q, err := entry.Model.Quantize()
	if err != nil {
		return nil, err
	}
	b := newBatcher(q, s.maxBatch)
	b.Meta = entry.Meta
	b.obs = s.tele.batch
	return b, nil
}

// batcherFor returns the micro-batcher serving key, resolving the model
// through the registry (training on miss) and starting the batcher on
// first use. Inserting past capacity evicts the least-recently-used
// batcher, which drains on its own goroutine (no global stall). Every
// batcher owns its snapshot, so an evicted one may drain beside the
// successor a later request builds for the same key.
func (s *Server) batcherFor(ctx context.Context, key Key) (*Batcher, error) {
	id := key.ID()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if v, ok := s.batchers.get(id); ok {
		s.mu.Unlock()
		if s.lookedUp != nil {
			s.lookedUp(v.(*Batcher))
		}
		return v.(*Batcher), nil
	}
	s.mu.Unlock()

	// Resolve outside the lock: Get may train for minutes, and other
	// models must keep serving meanwhile. Registry single-flight already
	// collapses duplicate resolves. ctx rides along for its values (the
	// trace ID crosses the peer-fetch hop); its cancellation does not.
	entry, err := s.reg.GetContext(ctx, key)
	if err != nil {
		return nil, err
	}

	// The snapshot converts outside the lock too; a caller that loses the
	// race to publish closes its unused batcher.
	b, err := s.newServingBatcher(entry)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		b.Close()
		return nil, ErrClosed
	}
	if v, ok := s.batchers.get(id); ok {
		s.mu.Unlock()
		b.Close()
		return v.(*Batcher), nil
	}
	evicted := s.batchers.put(id, b)
	s.mu.Unlock()
	for _, item := range evicted {
		go item.value.(*Batcher).Close()
	}
	return b, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if info := requireMethod(r, http.MethodPost); info != nil {
		api.WriteError(w, r, info)
		return
	}
	// One pass: the envelope and the graph decode together, graph
	// checks and size limits included.
	body, err := api.ReadBody(w, r)
	var req api.PredictRequest
	var g *programl.Graph
	if err == nil {
		req, g, err = programl.DecodePredict(body)
	}
	if err != nil {
		api.WriteError(w, r, api.DecodeError(err))
		return
	}
	if req.Scenario == "" {
		req.Scenario = ScenarioFull
	}
	key := Key{Machine: req.Machine, Scenario: req.Scenario, Objective: req.Objective}
	if err := key.Validate(); err != nil {
		api.WriteError(w, r, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	if g == nil {
		api.WriteError(w, r, api.Errorf(api.CodeBadRequest, "request has no graph"))
		return
	}
	s.vocab.Annotate(g)

	sp, err := key.Space()
	if err != nil {
		// Unreachable after key.Validate; classified as server-side.
		api.WriteError(w, r, api.Errorf(api.CodeInternal, "%v", err))
		return
	}

	// A batcher closed after the lookup, displaced by a canary promotion
	// or evicted, is looked up once more: its successor serves the key.
	var b *Batcher
	var picks []int
	for retry := true; ; retry = false {
		if b, err = s.batcherFor(r.Context(), key); err != nil {
			// The key already validated, so resolve failures are server-side
			// (or the model is genuinely absent and untrainable).
			api.WriteError(w, r, resolveErrInfo(err))
			return
		}
		picks, err = b.PredictContext(r.Context(), Request{Graph: g, Extras: req.Counters})
		if !retry || !errors.Is(err, ErrClosed) {
			break
		}
	}
	if err != nil {
		// Validation failures are the client's; forward failures, shed
		// admissions, expired budgets, and a batcher torn down mid-request
		// are not.
		info := api.Errorf(api.CodeBadRequest, "%v", err)
		switch {
		case errors.Is(err, ErrClosed):
			info.Code = api.CodeUnavailable
		case errors.Is(err, ErrForward):
			info.Code = api.CodeInternal
		case errors.Is(err, ErrOverloaded):
			info.Code = api.CodeOverloaded
		case errors.Is(err, context.DeadlineExceeded):
			info = api.Errorf(api.CodeDeadlineExceeded, "request budget spent before prediction completed")
		case errors.Is(err, context.Canceled):
			info = api.Errorf(api.CodeUnavailable, "request cancelled before prediction completed")
		}
		api.WriteError(w, r, info)
		return
	}

	resp := api.PredictResponse{
		RegionID:     g.RegionID,
		Machine:      key.Machine,
		Objective:    key.Objective,
		Scenario:     key.Scenario,
		ModelVersion: b.Meta.Version,
	}
	// One pick per target: per cap for time, one joint (cap, config) for EDP.
	targets, _ := core.ObjectiveTargets(sp, key.Objective) // key.Validate admitted it
	for _, t := range targets {
		capW, cfg := autotune.PickAt(sp, t.Obj, picks[t.Head])
		resp.Picks = append(resp.Picks, api.Pick{CapW: capW, ConfigIndex: picks[t.Head], Config: cfg.String()})
	}
	// Shadow rollout: while a canary is in flight for this model, every
	// scoreable predict is also handed to the refreshed version, and the
	// window's verdict promotes or demotes it. Scoring is asynchronous —
	// the request only pays a non-blocking enqueue (a full queue drops the
	// sample), and the client's picks above always come from the serving
	// version — vN serves uninterrupted.
	s.mu.Lock()
	c := s.canaries[key.ID()]
	s.mu.Unlock()
	if c != nil {
		c.enqueue(canarySample{
			g: g, extras: req.Counters, curPicks: picks,
			tid: telemetry.TraceID(r.Context()),
		})
	}
	s.served.Add(1)
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if info := requireMethod(r, http.MethodPost); info != nil {
		api.WriteError(w, r, info)
		return
	}
	var req api.TuneRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRequestBytes)).Decode(&req); err != nil {
		api.WriteError(w, r, api.DecodeError(err))
		return
	}
	// Model-free strategies never touch the batchers, so without this
	// check a drained server would still run full engine sessions.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		api.WriteError(w, r, api.Errorf(api.CodeUnavailable, "server is shutting down"))
		return
	}
	ts, info := s.prepTune(req)
	if info != nil {
		api.WriteError(w, r, info)
		return
	}
	if req.Async {
		job, info := s.jobs.Submit(ts.req, ts.run)
		if info != nil {
			api.WriteError(w, r, info)
			return
		}
		s.served.Add(1)
		api.WriteJSON(w, http.StatusAccepted, job)
		return
	}
	resp, info := ts.run(r.Context())
	if info != nil {
		api.WriteError(w, r, info)
		return
	}
	s.served.Add(1)
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleJobs lists retained jobs, oldest first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if info := requireMethod(r, http.MethodGet); info != nil {
		api.WriteError(w, r, info)
		return
	}
	api.WriteJSON(w, http.StatusOK, s.jobs.List())
}

// handleJob polls (GET) or cancels (DELETE) one job by ID.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, api.PathJobs+"/")
	if id == "" || strings.Contains(id, "/") {
		api.WriteError(w, r, api.Errorf(api.CodeNotFound, "no route %s", r.URL.Path))
		return
	}
	var job api.Job
	var info *api.ErrorInfo
	switch r.Method {
	case http.MethodGet:
		job, info = s.jobs.Get(id)
	case http.MethodDelete:
		job, info = s.jobs.Cancel(id)
	default:
		info = api.Errorf(api.CodeMethodNotAllowed, "%s not allowed (want GET or DELETE)", r.Method)
	}
	if info != nil {
		api.WriteError(w, r, info)
		return
	}
	api.WriteJSON(w, http.StatusOK, job)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if info := requireMethod(r, http.MethodGet); info != nil {
		api.WriteError(w, r, info)
		return
	}
	s.mu.Lock()
	nBatchers := s.batchers.len()
	s.mu.Unlock()
	st := s.reg.Stats()
	api.WriteJSON(w, http.StatusOK, api.Health{
		Status:          "ok",
		UptimeSec:       time.Since(s.start).Seconds(),
		Served:          s.served.Load(),
		Batchers:        nBatchers,
		CacheHits:       st.Hits,
		DiskLoads:       st.DiskLoads,
		ModelsTrained:   st.Trained,
		ModelsFetched:   st.Fetched,
		ModelsImported:  st.Imported,
		Evicted:         st.Evicted,
		PersistFailures: st.PersistFailures,
		Jobs:            s.jobs.Stats(),
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if info := requireMethod(r, http.MethodGet); info != nil {
		api.WriteError(w, r, info)
		return
	}
	infos := s.reg.List()
	out := make([]api.ModelInfo, 0, len(infos))
	for _, info := range infos {
		meta, err := json.Marshal(info.Meta)
		if err != nil {
			meta = nil
		}
		out = append(out, api.ModelInfo{
			Key: api.ModelKey{
				Machine:   info.Key.Machine,
				Scenario:  info.Key.Scenario,
				Objective: info.Key.Objective,
			},
			ID:     info.ID,
			Cached: info.Cached,
			OnDisk: info.OnDisk,
			Meta:   meta,
		})
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// requireMethod returns the method_not_allowed error when r's method
// isn't want.
func requireMethod(r *http.Request, want string) *api.ErrorInfo {
	if r.Method != want {
		return api.Errorf(api.CodeMethodNotAllowed, "%s not allowed (want %s)", r.Method, want)
	}
	return nil
}
