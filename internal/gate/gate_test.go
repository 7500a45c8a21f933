package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
)

// newTestGate builds a gate over the replica URLs (background probing
// effectively off) plus an SDK client pointed at it, so every assertion
// is a full client → gate → replica round trip over real HTTP.
func newTestGate(t *testing.T, urls ...string) (*Gate, *client.Client) {
	t.Helper()
	g, err := New(Config{Replicas: urls, Health: TrackerConfig{ProbeInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	t.Cleanup(func() { gs.Close(); g.Close() })
	return g, client.New(gs.URL, client.WithRetries(0, time.Millisecond))
}

// machineOwnedBy finds a machine name whose routing key the ring
// assigns to the wanted replica, so tests can aim traffic
// deterministically.
func machineOwnedBy(r *Ring, want int) string {
	for i := 0; ; i++ {
		m := fmt.Sprintf("m%d", i)
		if r.Owner(RouteKey(m, defaultScenario, "time")) == want {
			return m
		}
	}
}

func predictReq(machine string) api.PredictRequest {
	return api.PredictRequest{Machine: machine, Objective: "time", Graph: api.RawObject(`{}`)}
}

// stubError writes a replica-style error envelope.
func stubError(w http.ResponseWriter, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(api.StatusFor(code))
	json.NewEncoder(w).Encode(api.ErrorBody{Error: api.ErrorInfo{Code: code, Message: msg}})
}

// TestGateErrorCodes round-trips the gate's own typed failures through
// the SDK client: transport exhaustion → replica_unavailable (502),
// everything marked down → no_replica (503), and replica API errors
// passing through with their original code. The machine name is not a
// real machine so the degraded heuristic cannot answer — raw error
// codes stay visible (degraded serving has its own tests).
func TestGateErrorCodes(t *testing.T) {
	// Two replicas that refuse connections: started then immediately
	// closed, so their ports are dead.
	r0 := httptest.NewServer(http.NotFoundHandler())
	r1 := httptest.NewServer(http.NotFoundHandler())
	u0, u1 := r0.URL, r1.URL
	r0.Close()
	r1.Close()

	g, cl := newTestGate(t, u0, u1)
	ctx := context.Background()

	_, err := cl.Predict(ctx, predictReq("ghost-machine"))
	if !client.IsCode(err, api.CodeReplicaUnavailable) {
		t.Fatalf("dead replicas: err = %v, want code %s", err, api.CodeReplicaUnavailable)
	}
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusBadGateway {
		t.Fatalf("dead replicas: status = %v, want 502", err)
	}

	// Two more rounds of transport failures trip both breakers (threshold
	// 3); with everything down the gate answers no_replica before dialing.
	for i := 0; i < 2; i++ {
		cl.Predict(ctx, predictReq("ghost-machine"))
	}
	if st := g.Tracker().State(0); st != api.ReplicaDown {
		t.Fatalf("replica 0 state = %s, want down", st)
	}
	_, err = cl.Predict(ctx, predictReq("ghost-machine"))
	if !client.IsCode(err, api.CodeNoReplica) {
		t.Fatalf("all down: err = %v, want code %s", err, api.CodeNoReplica)
	}
	if !asAPIError(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("all down: status = %v, want 503", err)
	}

	// An oversized body is refused before routing, with the replicas'
	// code and status, on both body-carrying routes.
	huge := strings.Repeat("x", api.MaxRequestBytes+1)
	_, err = cl.PredictBody(ctx, []byte(`{"machine":"`+huge+`"}`))
	if !client.IsCode(err, api.CodeGraphTooLarge) || !asAPIError(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized predict: err = %v, want code %s (413)", err, api.CodeGraphTooLarge)
	}
	_, err = cl.Tune(ctx, api.TuneRequest{Machine: "ghost-machine", RegionID: huge})
	if !client.IsCode(err, api.CodeGraphTooLarge) {
		t.Fatalf("oversized tune: err = %v, want code %s", err, api.CodeGraphTooLarge)
	}
}

// TestGatePassthrough: a replica's own API error (here model_not_found)
// crosses the gate untouched — same code, same status — because an
// answering replica's verdict is authoritative.
func TestGatePassthrough(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathPredict, func(w http.ResponseWriter, r *http.Request) {
		stubError(w, api.CodeModelNotFound, "no model here")
	})
	rep := httptest.NewServer(mux)
	t.Cleanup(rep.Close)

	_, cl := newTestGate(t, rep.URL)
	_, err := cl.Predict(context.Background(), predictReq("haswell"))
	if !client.IsCode(err, api.CodeModelNotFound) {
		t.Fatalf("err = %v, want code %s", err, api.CodeModelNotFound)
	}
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("status not preserved: %v", err)
	}
}

// TestGateFailover503: the key's owner answers 503 (draining), so the
// gate re-sends to the next replica in the preference order and the
// client sees a clean success; the healthz counters record the
// failover, and a response-level 503 never trips a breaker.
func TestGateFailover503(t *testing.T) {
	mk := func(region string, fail bool) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc(api.PathPredict, func(w http.ResponseWriter, r *http.Request) {
			if fail {
				stubError(w, api.CodeUnavailable, "draining")
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(api.PredictResponse{RegionID: region})
		})
		return httptest.NewServer(mux)
	}
	r0 := mk("from-0", true)
	r1 := mk("from-1", false)
	t.Cleanup(r0.Close)
	t.Cleanup(r1.Close)

	g, cl := newTestGate(t, r0.URL, r1.URL)
	machine := machineOwnedBy(g.Ring(), 0)

	resp, err := cl.Predict(context.Background(), predictReq(machine))
	if err != nil {
		t.Fatalf("failover predict: %v", err)
	}
	if resp.RegionID != "from-1" {
		t.Fatalf("served by %q, want the failover replica", resp.RegionID)
	}

	h, err := cl.GateHealth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Retries < 1 || h.Failovers < 1 {
		t.Fatalf("counters retries=%d failovers=%d, want ≥1 each", h.Retries, h.Failovers)
	}
	for _, rs := range h.Replicas {
		if rs.State != api.ReplicaUp {
			t.Fatalf("replica %d state %s after a 503: response-level errors must not trip breakers", rs.Index, rs.State)
		}
	}
}

// TestGateJobRouting: async jobs come back with an "r<replica>-" scoped
// ID, polls and cancels route straight to the owning replica, listings
// merge every replica's jobs under scoped IDs, and unknown or
// out-of-range IDs answer job_not_found.
func TestGateJobRouting(t *testing.T) {
	mkReplica := func(idx int) *httptest.Server {
		job := api.Job{ID: fmt.Sprintf("local%d", idx), Status: api.JobQueued}
		mux := http.NewServeMux()
		mux.HandleFunc(api.PathTune, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(job)
		})
		mux.HandleFunc(api.PathJobs, func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode([]api.Job{job})
		})
		mux.HandleFunc(api.PathJobs+"/", func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != api.PathJobs+"/"+job.ID {
				stubError(w, api.CodeJobNotFound, "no such job")
				return
			}
			out := job
			if r.Method == http.MethodDelete {
				out.Status = api.JobCancelled
			} else {
				out.Status = api.JobDone
			}
			json.NewEncoder(w).Encode(out)
		})
		return httptest.NewServer(mux)
	}
	r0, r1 := mkReplica(0), mkReplica(1)
	t.Cleanup(r0.Close)
	t.Cleanup(r1.Close)

	g, cl := newTestGate(t, r0.URL, r1.URL)
	ctx := context.Background()

	job, err := cl.TuneAsync(ctx, api.TuneRequest{Machine: "haswell", Objective: "time", Strategy: "bliss", RegionID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	owner, local, ok := splitJobID(job.ID)
	if !ok || local != fmt.Sprintf("local%d", owner) {
		t.Fatalf("job ID %q not replica-scoped", job.ID)
	}
	want := g.Ring().Owner(RouteKey("haswell", defaultScenario, "time"))
	if owner != want {
		t.Fatalf("job landed on replica %d, ring owner is %d", owner, want)
	}

	got, err := cl.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != job.ID || got.Status != api.JobDone {
		t.Fatalf("poll = %+v", got)
	}
	cancelled, err := cl.CancelJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != api.JobCancelled {
		t.Fatalf("cancel = %+v", cancelled)
	}

	jobs, err := cl.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("merged listing has %d jobs, want 2: %+v", len(jobs), jobs)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		seen[j.ID] = true
	}
	if !seen["r0-local0"] || !seen["r1-local1"] {
		t.Fatalf("merged IDs = %v", seen)
	}

	for _, bad := range []string{"nonsense", "r99-zz", "r-", "rx-y"} {
		if _, err := cl.Job(ctx, bad); !client.IsCode(err, api.CodeJobNotFound) {
			t.Fatalf("Job(%q) err = %v, want %s", bad, err, api.CodeJobNotFound)
		}
	}
}

// TestGateWarmSingleFlight: 16 concurrent predicts for one cold key
// reach the replica exactly once until the leader's "training" request
// completes; afterwards everyone proceeds and all 16 succeed.
func TestGateWarmSingleFlight(t *testing.T) {
	var (
		predicts     atomic.Int64
		coldArrivals atomic.Int64
		firstDone    atomic.Bool
	)
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathPredict, func(w http.ResponseWriter, r *http.Request) {
		n := predicts.Add(1)
		if !firstDone.Load() {
			coldArrivals.Add(1)
		}
		if n == 1 {
			time.Sleep(50 * time.Millisecond) // the "training" request
			firstDone.Store(true)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.PredictResponse{RegionID: "r"})
	})
	rep := httptest.NewServer(mux)
	t.Cleanup(rep.Close)

	_, cl := newTestGate(t, rep.URL)

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Predict(context.Background(), predictReq("haswell"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
	}
	if got := coldArrivals.Load(); got != 1 {
		t.Fatalf("%d requests reached the replica while cold, want exactly 1", got)
	}
	if got := predicts.Load(); got != 16 {
		t.Fatalf("replica served %d predicts, want all 16", got)
	}
}

// TestGateModelDetailMerge: GET /v1/models/{id} fans out to every live
// replica; a replica without the model is a valid empty answer, the
// highest version wins (promotions replicate lazily, so copies
// legitimately diverge), and the winner's URL lands on the reply.
func TestGateModelDetailMerge(t *testing.T) {
	mkReplica := func(det *api.ModelDetail) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc(api.PathModels+"/", func(w http.ResponseWriter, r *http.Request) {
			if det == nil {
				stubError(w, api.CodeModelNotFound, "not on this replica")
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(*det)
		})
		s := httptest.NewServer(mux)
		t.Cleanup(s.Close)
		return s
	}
	const id = "00112233445566778899aabb"
	r0 := mkReplica(nil)
	r1 := mkReplica(&api.ModelDetail{ID: id, Version: 3, Samples: 12})
	r2 := mkReplica(&api.ModelDetail{ID: id, Version: 2})

	_, cl := newTestGate(t, r0.URL, r1.URL, r2.URL)
	det, err := cl.Model(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if det.Version != 3 || det.Samples != 12 {
		t.Fatalf("merged detail = %+v, want the v3 copy", det)
	}
	if det.Replica != r1.URL {
		t.Fatalf("winner replica = %q, want %q", det.Replica, r1.URL)
	}

	// No replica holds the model: one merged model_not_found.
	_, clEmpty := newTestGate(t, r0.URL)
	if _, err := clEmpty.Model(context.Background(), id); !client.IsCode(err, api.CodeModelNotFound) {
		t.Fatalf("all-miss err = %v, want code %s", err, api.CodeModelNotFound)
	}

	// Suffixed model paths (blob replication) are not gate surface.
	g, err := New(Config{Replicas: []string{r1.URL}, Health: TrackerConfig{ProbeInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	t.Cleanup(func() { gs.Close(); g.Close() })
	resp, err := http.Get(gs.URL + api.PathModel(id) + "/blob")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("blob route through gate = %d, want 404", resp.StatusCode)
	}
}

// asAPIError extracts the typed API failure for status assertions.
func asAPIError(err error, target **client.APIError) bool {
	return errors.As(err, target)
}
