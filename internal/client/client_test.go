package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/registry"
	"pnptuner/internal/space"
)

// tinyTrainer builds a small deterministic model without training — the
// seeded initialization is reproducible, which is all wire-contract
// tests need.
func tinyTrainer(k registry.Key) (*core.Model, core.ModelMeta, error) {
	c := kernels.MustCompile()
	mach, err := hw.ByName(k.Machine)
	if err != nil {
		return nil, core.ModelMeta{}, err
	}
	sp := space.New(mach)
	cfg := core.DefaultModelConfig()
	cfg.EmbedDim, cfg.Hidden, cfg.Epochs = 6, 6, 0
	nHeads, classes := len(sp.Caps()), 16
	if k.Objective == registry.ObjectiveEDP {
		nHeads, classes = 1, 64
	}
	m := core.NewModel(cfg, c.Vocab.Size(), nHeads, classes)
	meta := core.ModelMeta{
		Machine: k.Machine, Scenario: k.Scenario, Objective: k.Objective,
		Caps:       append([]float64(nil), sp.Caps()...),
		NumConfigs: sp.NumConfigs(), NumJoint: sp.NumJoint(),
		VocabSize: c.Vocab.Size(),
	}
	return m, meta, nil
}

// newTestClient boots a real registry server behind httptest and a
// client against it.
func newTestClient(t *testing.T) *Client {
	t.Helper()
	reg, err := registry.New("", 4, tinyTrainer)
	if err != nil {
		t.Fatal(err)
	}
	c := kernels.MustCompile()
	srv := registry.NewServer(reg, c.Vocab, registry.ServerConfig{MaxBatch: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return New(ts.URL)
}

// corpusGraphJSON marshals one corpus region's graph for predict
// requests.
func corpusGraphJSON(t *testing.T, idx int) []byte {
	t.Helper()
	b, err := json.Marshal(kernels.MustCompile().Regions[idx].Graph)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClientRoundTrip drives every endpoint through the SDK against a
// live server: the golden decode of each success path into the shared
// api types.
func TestClientRoundTrip(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("health = %+v", health)
	}

	pr, err := c.Predict(ctx, api.PredictRequest{
		Machine: "haswell", Objective: "time", Graph: corpusGraphJSON(t, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Picks) != 4 || pr.Picks[0].Config == "" {
		t.Fatalf("predict picks = %+v", pr.Picks)
	}

	models, err := c.ListModels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Key.Machine != "haswell" || !models[0].Cached {
		t.Fatalf("models = %+v", models)
	}

	region := kernels.MustCompile().Regions[0].ID
	treq := api.TuneRequest{
		Machine: "haswell", Objective: "time", Strategy: "hybrid",
		RegionID: region, Budget: 3, Seed: 11,
	}
	sync, err := c.Tune(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	if len(sync.Picks) != 4 || sync.Picks[0].Evals != 3 || len(sync.Picks[0].Trace) != 3 {
		t.Fatalf("tune = %+v", sync)
	}

	// Async parity: TuneAsync + Wait returns the bit-identical result.
	job, err := c.TuneAsync(ctx, treq)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Request.Async {
		t.Fatalf("submitted job = %+v", job)
	}
	fin, err := c.Wait(ctx, job.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != api.JobDone || fin.Result == nil {
		t.Fatalf("job = %+v", fin)
	}
	if !reflect.DeepEqual(*fin.Result, *sync) {
		t.Fatalf("async result diverges from sync:\n%+v\n%+v", *fin.Result, *sync)
	}

	jobs, err := c.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("jobs = %+v", jobs)
	}

	// Cancel of a finished job is a no-op snapshot.
	snap, err := c.CancelJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != api.JobDone {
		t.Fatalf("cancel snapshot = %+v", snap)
	}
}

// TestClientErrorCodes: each failure path decodes into an *APIError
// carrying the server's stable code.
func TestClientErrorCodes(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	region := kernels.MustCompile().Regions[0].ID

	cases := []struct {
		name string
		do   func() error
		code string
	}{
		{"bad machine", func() error {
			_, err := c.Predict(ctx, api.PredictRequest{Machine: "epyc", Objective: "time", Graph: corpusGraphJSON(t, 0)})
			return err
		}, api.CodeBadRequest},
		{"no graph", func() error {
			_, err := c.Predict(ctx, api.PredictRequest{Machine: "haswell", Objective: "time"})
			return err
		}, api.CodeBadRequest},
		{"unknown region", func() error {
			_, err := c.Tune(ctx, api.TuneRequest{Machine: "haswell", Objective: "time", Strategy: "bliss", RegionID: "nope#0"})
			return err
		}, api.CodeRegionNotFound},
		{"budget exceeded", func() error {
			_, err := c.Tune(ctx, api.TuneRequest{Machine: "haswell", Objective: "time", Strategy: "bliss", RegionID: region, Budget: api.MaxTuneBudget + 1})
			return err
		}, api.CodeBudgetExceeded},
		{"unknown job", func() error {
			_, err := c.Job(ctx, "nosuchjob")
			return err
		}, api.CodeJobNotFound},
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		var ae *APIError
		if !IsCode(err, tc.code) {
			t.Errorf("%s: code %q, want %q (%v)", tc.name, ErrorCode(err), tc.code, err)
		} else if !errors.As(err, &ae) {
			t.Errorf("%s: not an *APIError: %v", tc.name, err)
		} else if ae.Status != api.StatusFor(tc.code) {
			t.Errorf("%s: status %d, want %d", tc.name, ae.Status, api.StatusFor(tc.code))
		}
	}
}

// TestClientModelNotFound: a trainerless registry surfaces the stable
// model_not_found code through the SDK.
func TestClientModelNotFound(t *testing.T) {
	reg, err := registry.New("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	corpus := kernels.MustCompile()
	srv := registry.NewServer(reg, corpus.Vocab, registry.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := New(ts.URL)
	_, err = c.Predict(context.Background(), api.PredictRequest{
		Machine: "haswell", Objective: "time", Graph: corpusGraphJSON(t, 0),
	})
	if !IsCode(err, api.CodeModelNotFound) {
		t.Fatalf("code = %q (%v), want model_not_found", ErrorCode(err), err)
	}
}

// TestClientRetriesOn503: transient unavailability is retried with
// backoff until the server recovers; a non-503 error is not.
func TestClientRetriesOn503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorBody{Error: api.ErrorInfo{Code: api.CodeUnavailable, Message: "draining"}})
			return
		}
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(3, time.Millisecond))
	health, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || calls.Load() != 3 {
		t.Fatalf("health = %+v after %d calls", health, calls.Load())
	}

	// Retries exhausted: the 503 surfaces as an APIError.
	calls.Store(-100)
	_, err = c.Health(context.Background())
	if !IsCode(err, api.CodeUnavailable) {
		t.Fatalf("exhausted retries error = %v", err)
	}

	// 4xx is terminal: exactly one attempt.
	var bad atomic.Int32
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bad.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorBody{Error: api.ErrorInfo{Code: api.CodeBadRequest, Message: "nope"}})
	}))
	defer ts2.Close()
	c2 := New(ts2.URL, WithRetries(3, time.Millisecond))
	if _, err := c2.Health(context.Background()); !IsCode(err, api.CodeBadRequest) {
		t.Fatalf("bad request error = %v", err)
	}
	if bad.Load() != 1 {
		t.Fatalf("4xx retried: %d attempts", bad.Load())
	}
}

// TestClientRetriesConnectionError: a dead server is retried, then the
// transport error surfaces (not an APIError).
func TestClientRetriesConnectionError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close() // nothing listens any more

	c := New(url, WithRetries(1, time.Millisecond))
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("no error from dead server")
	}
	if ErrorCode(err) != "" {
		t.Fatalf("transport failure misread as API error: %v", err)
	}
}

// TestClientWaitHonoursContext: Wait returns promptly when the context
// expires while the job is still running.
func TestClientWaitHonoursContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Job{ID: "j", Status: api.JobRunning})
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Wait(ctx, "j", 5*time.Millisecond)
	if err == nil {
		t.Fatal("Wait returned without a terminal status")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("Wait ignored the context deadline (%s)", time.Since(start))
	}
}
