package registry

import (
	"context"
	"sort"
	"sync"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/telemetry"
)

// JobRunner executes one async tuning session under ctx. A cancelled ctx
// must stop the session promptly (the engine checks it before every
// measurement); the runner reports either a result or a wire error.
type JobRunner func(ctx context.Context) (*api.TuneResponse, *api.ErrorInfo)

// JobStoreConfig bounds the async tune subsystem. The zero value gets
// the defaults below — a job store is always bounded.
type JobStoreConfig struct {
	// Workers is the number of concurrent engine sessions (default 2).
	// Sessions shortlist through the shared micro-batchers, so workers
	// add queueing, not model contention.
	Workers int
	// Queue is the maximum number of jobs waiting for a worker
	// (default 32); past it Submit answers CodeQueueFull.
	Queue int
	// TTL is how long finished jobs stay pollable before GC
	// (default 15m).
	TTL time.Duration
	// MaxJobs bounds total retained jobs; past it the oldest finished
	// jobs are dropped early, before their TTL (default 1024).
	MaxJobs int
}

func (c JobStoreConfig) withDefaults() JobStoreConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue <= 0 {
		c.Queue = 32
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// jobState is one tracked job: the wire view plus the runtime handles
// the store needs to run and cancel it. All fields are guarded by the
// store's mutex except ctx/cancel/run, which are set once at submit.
type jobState struct {
	job    api.Job
	run    JobRunner
	ctx    context.Context
	cancel context.CancelFunc
}

// JobStore runs async tuning sessions on a bounded worker pool: Submit
// enqueues (bounded queue depth), workers run sessions off-request under
// a cancellable context, finished jobs stay pollable for a TTL and are
// then garbage-collected. All methods are safe for concurrent use.
type JobStore struct {
	cfg JobStoreConfig

	mu        sync.Mutex
	jobs      map[string]*jobState
	stopped   bool
	running   int
	done      int64
	failed    int64
	cancelled int64
	obs       *jobObs // nil disables telemetry (library use, tests)

	queue  chan *jobState
	quit   chan struct{} // closed by Stop: workers exit after their current job
	gcQuit chan struct{}
	wg     sync.WaitGroup // worker goroutines
	gcWG   sync.WaitGroup
}

// NewJobStore starts a job store with cfg's bounds (zero values get
// defaults). Call Stop to shut it down.
func NewJobStore(cfg JobStoreConfig) *JobStore {
	cfg = cfg.withDefaults()
	s := &JobStore{
		cfg:    cfg,
		jobs:   make(map[string]*jobState),
		queue:  make(chan *jobState, cfg.Queue),
		quit:   make(chan struct{}),
		gcQuit: make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.gcWG.Add(1)
	go s.gcLoop()
	return s
}

// Submit registers req as a new job and enqueues run. It answers
// CodeQueueFull when the queue is at depth and CodeUnavailable after
// Stop. The Async flag is cleared in the echoed request: a job's result
// is the synchronous response for that request.
func (s *JobStore) Submit(req api.TuneRequest, run JobRunner) (api.Job, *api.ErrorInfo) {
	req.Async = false
	ctx, cancel := context.WithCancel(context.Background())
	st := &jobState{
		job: api.Job{
			ID:        newJobID(),
			Status:    api.JobQueued,
			Request:   req,
			CreatedAt: time.Now(),
		},
		run:    run,
		ctx:    ctx,
		cancel: cancel,
	}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		cancel()
		return api.Job{}, api.Errorf(api.CodeUnavailable, "job store is shutting down")
	}
	// The (non-blocking, buffered) enqueue happens under the lock so it
	// is atomic with the stopped check: Stop sets stopped and drains the
	// queue in one critical section, so no job can slip in after the
	// drain and sit queued forever.
	select {
	case s.queue <- st:
	default:
		obs := s.obs
		s.mu.Unlock()
		cancel()
		if obs != nil {
			obs.rejected.Inc()
		}
		return api.Job{}, api.Errorf(api.CodeQueueFull,
			"job queue full (%d queued); retry later", s.cfg.Queue)
	}
	s.jobs[st.job.ID] = st
	// The just-inserted job is non-terminal and can't be evicted; the
	// pass keeps retained jobs at the cap even between GC ticks.
	s.evictLocked(time.Now())
	// Snapshot before releasing the lock: once a worker can see st,
	// st.job is mutable only under the lock.
	snapshot := st.job
	s.mu.Unlock()
	return snapshot, nil
}

// Get returns a snapshot of job id, or CodeJobNotFound (never existed,
// or GC'd after its TTL).
func (s *JobStore) Get(id string) (api.Job, *api.ErrorInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[id]
	if !ok {
		return api.Job{}, api.Errorf(api.CodeJobNotFound, "no job %q (unknown, or expired after %s)", id, s.cfg.TTL)
	}
	return st.job, nil
}

// List returns snapshots of every retained job, oldest first.
func (s *JobStore) List() []api.Job {
	s.mu.Lock()
	out := make([]api.Job, 0, len(s.jobs))
	for _, st := range s.jobs {
		out = append(out, st.job)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Cancel requests cancellation of job id and returns its snapshot. A
// queued job is cancelled immediately; a running job's context is
// cancelled and the engine session stops before its next measurement
// (the snapshot still reads "running" with cancel_requested until it
// does). Cancelling a finished job is a no-op, not an error.
func (s *JobStore) Cancel(id string) (api.Job, *api.ErrorInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[id]
	if !ok {
		return api.Job{}, api.Errorf(api.CodeJobNotFound, "no job %q (unknown, or expired after %s)", id, s.cfg.TTL)
	}
	if st.job.Terminal() {
		return st.job, nil
	}
	st.job.CancelRequested = true
	st.cancel()
	if st.job.Status == api.JobQueued {
		// The worker that eventually pops it will skip it; finish it now
		// so pollers see the terminal status immediately.
		s.finishLocked(st, api.JobCancelled)
	}
	return st.job, nil
}

// Stats snapshots the store's counters for /healthz.
func (s *JobStore) Stats() api.JobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := api.JobStats{
		Running:   s.running,
		Done:      s.done,
		Failed:    s.failed,
		Cancelled: s.cancelled,
	}
	for _, j := range s.jobs {
		if j.job.Status == api.JobQueued {
			st.Queued++
		}
	}
	return st
}

// stopGrace bounds how long Stop keeps waiting after it has cancelled
// the running sessions' contexts: the engine observes cancellation
// between measurements (microseconds on replay), so this only trips for
// a session stuck in non-cancellable work — model training inside a
// registry resolve — which is then abandoned to finish in the
// background (its result is discarded as cancelled).
const stopGrace = 2 * time.Second

// Stop shuts the store down: no new submissions, queued jobs are
// cancelled, and running sessions drain gracefully until ctx expires —
// then their contexts are cancelled and the engine stops them before
// the next measurement. A session that cannot observe its context (it
// is inside model training, not the engine loop) is abandoned after a
// short grace rather than blocking shutdown indefinitely. Safe to call
// more than once.
func (s *JobStore) Stop(ctx context.Context) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.gcWG.Wait()
		return
	}
	s.stopped = true
	// Drain the queue in the same critical section that flips stopped:
	// Submit enqueues under this lock, so nothing can be queued after
	// this loop. Workers may still pop concurrently — whatever they win
	// runs to completion as a normal drain.
	for {
		var st *jobState
		select {
		case st = <-s.queue:
		default:
		}
		if st == nil {
			break
		}
		if !st.job.Terminal() {
			st.job.CancelRequested = true
			s.finishLocked(st, api.JobCancelled)
		}
		st.cancel()
	}
	s.mu.Unlock()

	close(s.quit)
	close(s.gcQuit)

	// Drain running sessions until the deadline, then cancel them.
	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
		s.mu.Lock()
		for _, st := range s.jobs {
			if !st.job.Terminal() {
				st.job.CancelRequested = true
				st.cancel()
			}
		}
		s.mu.Unlock()
		select {
		case <-workersDone:
		case <-time.After(stopGrace):
		}
	}
	s.gcWG.Wait()
}

// worker runs queued jobs until Stop.
func (s *JobStore) worker() {
	defer s.wg.Done()
	for {
		select {
		case st := <-s.queue:
			s.runJob(st)
		case <-s.quit:
			return
		}
	}
}

// runJob executes one job and records its terminal status.
func (s *JobStore) runJob(st *jobState) {
	s.mu.Lock()
	if st.job.Status != api.JobQueued {
		// Cancelled while waiting for a worker.
		s.mu.Unlock()
		return
	}
	now := time.Now()
	st.job.Status = api.JobRunning
	st.job.StartedAt = &now
	s.running++
	s.mu.Unlock()

	resp, errInfo := st.run(st.ctx)

	s.mu.Lock()
	s.running--
	switch {
	case st.ctx.Err() != nil:
		// Cancelled mid-session (Cancel or Stop deadline); a result from
		// a truncated session must not masquerade as the real one.
		s.finishLocked(st, api.JobCancelled)
	case errInfo != nil:
		st.job.Error = errInfo
		s.finishLocked(st, api.JobFailed)
	default:
		st.job.Result = resp
		s.finishLocked(st, api.JobDone)
	}
	s.mu.Unlock()
	st.cancel()
}

// finishLocked moves st to terminal status and bumps the counter.
// Callers hold s.mu.
func (s *JobStore) finishLocked(st *jobState, status string) {
	now := time.Now()
	st.job.Status = status
	st.job.FinishedAt = &now
	switch status {
	case api.JobDone:
		s.done++
	case api.JobFailed:
		s.failed++
	case api.JobCancelled:
		s.cancelled++
	}
	if s.obs != nil {
		s.obs.outcomes.With(status).Inc()
		if st.job.StartedAt != nil {
			s.obs.dur.ObserveDuration(now.Sub(*st.job.StartedAt))
		}
	}
}

// setObs attaches the server's job instrumentation; outcome strings
// become the counter's outcome label, so label cardinality is the three
// terminal statuses.
func (s *JobStore) setObs(obs *jobObs) {
	s.mu.Lock()
	s.obs = obs
	s.mu.Unlock()
}

// gcLoop drops expired finished jobs on a timer.
func (s *JobStore) gcLoop() {
	defer s.gcWG.Done()
	interval := s.cfg.TTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case now := <-ticker.C:
			s.mu.Lock()
			s.evictLocked(now)
			s.mu.Unlock()
		case <-s.gcQuit:
			return
		}
	}
}

// evictLocked removes finished jobs past their TTL, then — if the store
// still holds more than MaxJobs — the oldest finished ones beyond the
// cap. Callers hold s.mu.
func (s *JobStore) evictLocked(now time.Time) {
	for id, st := range s.jobs {
		if st.job.Terminal() && now.Sub(*st.job.FinishedAt) > s.cfg.TTL {
			delete(s.jobs, id)
		}
	}
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	finished := make([]*jobState, 0, len(s.jobs))
	for _, st := range s.jobs {
		if st.job.Terminal() {
			finished = append(finished, st)
		}
	}
	sort.Slice(finished, func(i, j int) bool {
		return finished[i].job.FinishedAt.Before(*finished[j].job.FinishedAt)
	})
	for _, st := range finished {
		if len(s.jobs) <= s.cfg.MaxJobs {
			break
		}
		delete(s.jobs, st.job.ID)
	}
}

// newJobID returns a 16-hex-char random job ID.
func newJobID() string { return telemetry.RandomHex(8) }
