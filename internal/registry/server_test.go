package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
	"pnptuner/internal/telemetry"
)

// newTestServer wires a registry with the tiny trainer behind httptest.
func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := New("", 4, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := tinyModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := kernels.MustCompile()
	srv := NewServer(reg, c.Vocab, ServerConfig{MaxBatch: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// predictBody builds a /v1/predict request for a corpus region's graph.
func predictBody(t testing.TB, machine, objective string, regionIdx int) []byte {
	t.Helper()
	c := kernels.MustCompile()
	graphJSON, err := json.Marshal(c.Regions[regionIdx].Graph)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.PredictRequest{
		Machine: machine, Objective: objective, Graph: graphJSON,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// malformedGraphs are predict "graph" values a replica must refuse with
// bad_request: an unknown node kind, an unknown relation, an
// out-of-range edge, a negative edge source, and non-graph values.
var malformedGraphs = []string{
	`{"nodes":[{"kind":"alien","text":"x"}]}`,
	`{"nodes":[{"kind":"variable","text":"x"}],"edges":[{"src":0,"dst":0,"rel":"teleport"}]}`,
	`{"nodes":[{"kind":"variable","text":"x"}],"edges":[{"src":0,"dst":5,"rel":"data"}]}`,
	`{"nodes":[{"kind":"variable","text":"x"}],"edges":[{"src":-1,"dst":0,"rel":"data"}]}`,
	`"x"`,
	`42`,
	`null`,
	`{}`,
}

// postGraph returns a case that POSTs a haswell/time predict whose
// "graph" value is the given raw JSON.
func postGraph(ts *httptest.Server, graph string) func() (*http.Response, error) {
	return func() (*http.Response, error) {
		body := `{"machine":"haswell","objective":"time","graph":` + graph + `}`
		return http.Post(ts.URL+api.PathPredict, "application/json", strings.NewReader(body))
	}
}

// decodeError reads a non-2xx response's ErrorBody envelope.
func decodeError(t *testing.T, resp *http.Response) api.ErrorBody {
	t.Helper()
	var body api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error response is not the envelope: %v", err)
	}
	if body.Error.Code == "" {
		t.Fatalf("error envelope has no code: %+v", body)
	}
	if want := api.StatusFor(body.Error.Code); want != resp.StatusCode {
		t.Fatalf("status %d does not match code %q (want %d)", resp.StatusCode, body.Error.Code, want)
	}
	return body
}

func TestServerPredictTimeAndEDP(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+api.PathPredict, "application/json",
		bytes.NewReader(predictBody(t, "haswell", ObjectiveTime, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Picks) != 4 { // tiny time model: one head per Haswell cap
		t.Fatalf("got %d picks, want 4: %+v", len(pr.Picks), pr)
	}
	for _, p := range pr.Picks {
		if p.Config == "" || p.CapW <= 0 {
			t.Fatalf("bad pick %+v", p)
		}
	}

	resp2, err := http.Post(ts.URL+api.PathPredict, "application/json",
		bytes.NewReader(predictBody(t, "haswell", ObjectiveEDP, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var pr2 api.PredictResponse
	if err := json.NewDecoder(resp2.Body).Decode(&pr2); err != nil {
		t.Fatal(err)
	}
	if len(pr2.Picks) != 1 || pr2.Picks[0].CapW <= 0 {
		t.Fatalf("edp picks = %+v", pr2.Picks)
	}
}

// TestServerLegacyPredictAlias: the pre-versioning /predict path is
// gone; it answers the typed not_found envelope like any unknown route.
func TestServerLegacyPredictAlias(t *testing.T) {
	_, ts := newTestServer(t)
	body := predictBody(t, "haswell", ObjectiveTime, 0)
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := decodeError(t, resp).Error.Code; got != api.CodeNotFound {
		t.Fatalf("POST /predict code %q, want %q", got, api.CodeNotFound)
	}
}

// TestServerConcurrentPredictionsDeterministic: the acceptance criterion
// — concurrent HTTP predictions must equal each other (and therefore the
// single-request answer) for the same graph.
func TestServerConcurrentPredictionsDeterministic(t *testing.T) {
	_, ts := newTestServer(t)

	// Golden single request.
	golden := postPredict(t, ts, api.PathPredict, predictBody(t, "haswell", ObjectiveTime, 2))

	const n = 24
	results := make([]api.PredictResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = postPredict(t, ts, api.PathPredict, predictBody(t, "haswell", ObjectiveTime, 2))
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if len(r.Picks) != len(golden.Picks) {
			t.Fatalf("request %d: %d picks", i, len(r.Picks))
		}
		for h := range r.Picks {
			if r.Picks[h].ConfigIndex != golden.Picks[h].ConfigIndex {
				t.Fatalf("request %d head %d: %d != golden %d",
					i, h, r.Picks[h].ConfigIndex, golden.Picks[h].ConfigIndex)
			}
		}
	}
}

func postPredict(t testing.TB, ts *httptest.Server, path string, body []byte) api.PredictResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestServerErrorCodes pins every client-visible error path to its
// stable machine-readable code — the contract the SDK switches on.
func TestServerErrorCodes(t *testing.T) {
	_, ts := newTestServer(t)
	type errCase struct {
		name string
		do   func() (*http.Response, error)
		code string
	}
	cases := []errCase{
		{"GET /v1/predict", func() (*http.Response, error) {
			return http.Get(ts.URL + api.PathPredict)
		}, api.CodeMethodNotAllowed},
		{"GET /v1/tune", func() (*http.Response, error) {
			return http.Get(ts.URL + api.PathTune)
		}, api.CodeMethodNotAllowed},
		{"POST /v1/healthz", func() (*http.Response, error) {
			return http.Post(ts.URL+api.PathHealthz, "application/json", nil)
		}, api.CodeMethodNotAllowed},
		{"POST /v1/models", func() (*http.Response, error) {
			return http.Post(ts.URL+api.PathModels, "application/json", nil)
		}, api.CodeMethodNotAllowed},
		{"POST /v1/jobs", func() (*http.Response, error) {
			return http.Post(ts.URL+api.PathJobs, "application/json", nil)
		}, api.CodeMethodNotAllowed},
		{"DELETE /v1/healthz", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+api.PathHealthz, nil)
			return http.DefaultClient.Do(req)
		}, api.CodeMethodNotAllowed},
		{"unknown route", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v2/predict")
		}, api.CodeNotFound},
		{"bad JSON", func() (*http.Response, error) {
			return http.Post(ts.URL+api.PathPredict, "application/json", bytes.NewReader([]byte("{")))
		}, api.CodeBadRequest},
		{"unknown machine", func() (*http.Response, error) {
			return http.Post(ts.URL+api.PathPredict, "application/json",
				bytes.NewReader(predictBody(t, "epyc", ObjectiveTime, 0)))
		}, api.CodeBadRequest},
		{"unknown objective", func() (*http.Response, error) {
			return http.Post(ts.URL+api.PathPredict, "application/json",
				bytes.NewReader(predictBody(t, "haswell", "latency", 0)))
		}, api.CodeBadRequest},
		{"unknown loocv app", func() (*http.Response, error) {
			c := kernels.MustCompile()
			graphJSON, _ := json.Marshal(c.Regions[0].Graph)
			body, _ := json.Marshal(api.PredictRequest{
				Machine: "haswell", Objective: ObjectiveTime,
				Scenario: "loocv:nosuchapp", Graph: graphJSON,
			})
			return http.Post(ts.URL+api.PathPredict, "application/json", bytes.NewReader(body))
		}, api.CodeBadRequest},
		{"no graph", func() (*http.Response, error) {
			body, _ := json.Marshal(api.PredictRequest{Machine: "haswell", Objective: ObjectiveTime})
			return http.Post(ts.URL+api.PathPredict, "application/json", bytes.NewReader(body))
		}, api.CodeBadRequest},
		{"oversized body", func() (*http.Response, error) {
			// Valid JSON whose decode must cross the byte ceiling.
			huge := append([]byte(`{"machine":"`), bytes.Repeat([]byte("x"), api.MaxRequestBytes+1)...)
			huge = append(huge, `"}`...)
			return http.Post(ts.URL+api.PathPredict, "application/json", bytes.NewReader(huge))
		}, api.CodeGraphTooLarge},
		{"counters on static model", func() (*http.Response, error) {
			c := kernels.MustCompile()
			graphJSON, _ := json.Marshal(c.Regions[0].Graph)
			body, _ := json.Marshal(api.PredictRequest{
				Machine: "haswell", Objective: ObjectiveTime, Graph: graphJSON,
				Counters: []float64{1, 2, 3},
			})
			return http.Post(ts.URL+api.PathPredict, "application/json", bytes.NewReader(body))
		}, api.CodeBadRequest},
		{"unknown job", func() (*http.Response, error) {
			return http.Get(ts.URL + api.PathJobs + "/nosuchjob")
		}, api.CodeJobNotFound},
		{"cancel unknown job", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+api.PathJobs+"/nosuchjob", nil)
			return http.DefaultClient.Do(req)
		}, api.CodeJobNotFound},
		{"PUT on a job", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodPut, ts.URL+api.PathJobs+"/nosuchjob", nil)
			return http.DefaultClient.Do(req)
		}, api.CodeMethodNotAllowed},
	}
	for _, graph := range malformedGraphs {
		cases = append(cases, errCase{"graph " + graph, postGraph(ts, graph), api.CodeBadRequest})
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := decodeError(t, resp)
		resp.Body.Close()
		if body.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, body.Error.Code, tc.code, body.Error.Message)
		}
	}
}

// TestServerModelNotFound: with no trainer and no store, a prediction
// for a missing model is a 404 with the stable code, not a 500.
func TestServerModelNotFound(t *testing.T) {
	reg, err := New("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := kernels.MustCompile()
	srv := NewServer(reg, c.Vocab, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	resp, err := http.Post(ts.URL+api.PathPredict, "application/json",
		bytes.NewReader(predictBody(t, "haswell", ObjectiveTime, 0)))
	if err != nil {
		t.Fatal(err)
	}
	body := decodeError(t, resp)
	resp.Body.Close()
	if body.Error.Code != api.CodeModelNotFound {
		t.Fatalf("code = %q, want %q", body.Error.Code, api.CodeModelNotFound)
	}

	// The tune path resolves models the same way.
	tuneResp, err := http.Post(ts.URL+api.PathTune, "application/json", bytes.NewReader(tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: ObjectiveTime, Strategy: "gnn",
		RegionID: kernels.MustCompile().Regions[0].ID,
	})))
	if err != nil {
		t.Fatal(err)
	}
	body = decodeError(t, tuneResp)
	tuneResp.Body.Close()
	if body.Error.Code != api.CodeModelNotFound {
		t.Fatalf("tune code = %q, want %q", body.Error.Code, api.CodeModelNotFound)
	}
}

// TestServerRequestID: the correlation ID round-trips into error
// envelopes, and absent ones are generated.
func TestServerRequestID(t *testing.T) {
	_, ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+api.PathJobs+"/missing", nil)
	req.Header.Set(telemetry.TraceHeader, "corr-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := decodeError(t, resp)
	resp.Body.Close()
	if body.RequestID != "corr-42" || resp.Header.Get(telemetry.TraceHeader) != "corr-42" {
		t.Fatalf("request ID not echoed: body %q header %q", body.RequestID, resp.Header.Get(telemetry.TraceHeader))
	}
}

// TestServerBatcherLRUBounded: the operator's cache capacity bounds live
// batchers too — serving a third model on a capacity-2 server closes the
// least-recently-used batcher instead of accumulating all three.
func TestServerBatcherLRUBounded(t *testing.T) {
	reg, err := New("", 2, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := tinyModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := kernels.MustCompile()
	srv := NewServer(reg, c.Vocab, ServerConfig{MaxBatch: 4})
	defer srv.Close()

	keys := []Key{
		{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime},
		{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveEDP},
		{Machine: "skylake", Scenario: ScenarioFull, Objective: ObjectiveTime},
	}
	batchers := make([]*Batcher, len(keys))
	for i, k := range keys {
		b, err := srv.batcherFor(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		batchers[i] = b
	}
	srv.mu.Lock()
	live := srv.batchers.len()
	srv.mu.Unlock()
	if live != 2 {
		t.Fatalf("%d live batchers, want 2 (capacity)", live)
	}
	// The evicted (oldest) batcher drains and closes on its own
	// goroutine; poll until it refuses work.
	g := corpusGraphs(t, 1)[0]
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := batchers[0].Predict(Request{Graph: g}); err == ErrClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted batcher never closed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The survivors still serve.
	if _, err := batchers[2].Predict(Request{Graph: g}); err != nil {
		t.Fatalf("surviving batcher failed: %v", err)
	}
}

// TestEvictedBatcherDrainsBesideSuccessor: a batcher evicted while its
// queue is busy drains on its own goroutine while batcherFor builds its
// successor over the same float64 model at once. Each batcher forwards
// on its own float32 snapshot, so both answer with the model's picks
// (under -race, with no data race), and the evicted one then refuses
// work with ErrClosed.
func TestEvictedBatcherDrainsBesideSuccessor(t *testing.T) {
	keyA := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	keyB := Key{Machine: "skylake", Scenario: ScenarioFull, Objective: ObjectiveTime}
	models := map[Key]*core.Model{}
	metas := map[Key]core.ModelMeta{}
	for _, k := range []Key{keyA, keyB} {
		models[k], metas[k] = tinyModel(k)
	}
	// The trainer hands the same *core.Model back for a key, as a
	// registry holding it would.
	reg, err := New("", 1, func(k Key) (*core.Model, core.ModelMeta, error) {
		return models[k], metas[k], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	graphs := corpusGraphs(t, 4)
	want := make([][]int, len(graphs))
	for i, g := range graphs {
		want[i] = models[keyA].PredictGraphs([]*programl.Graph{g}, nil)[0]
	}
	check := func(b *Batcher, i int) error {
		got, err := b.Predict(Request{Graph: graphs[i]})
		if err == nil && !reflect.DeepEqual(got, want[i]) {
			err = fmt.Errorf("graph %d: picks %v, want %v", i, got, want[i])
		}
		return err
	}
	c := kernels.MustCompile()
	srv := NewServer(reg, c.Vocab, ServerConfig{MaxBatch: 2})
	defer srv.Close()
	ctx := context.Background()

	old, err := srv.batcherFor(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the first batcher's queue busy until it closes.
	var wg sync.WaitGroup
	var served atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				err := check(old, i%len(graphs))
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("evicted batcher: %v", err)
					return
				}
				served.Add(1)
			}
		}(w)
	}
	for served.Load() < 8 {
		time.Sleep(time.Millisecond)
	}

	// Capacity 1: serving keyB evicts keyA's batcher, and keyA at once
	// gets a successor while the evicted one drains.
	if _, err := srv.batcherFor(ctx, keyB); err != nil {
		t.Fatal(err)
	}
	succ, err := srv.batcherFor(ctx, keyA)
	if err != nil {
		t.Fatal(err)
	}
	if succ == old {
		t.Fatal("batcherFor handed the evicted batcher out again")
	}
	for i := range graphs {
		if err := check(succ, i); err != nil {
			t.Fatalf("successor: %v", err)
		}
	}

	select {
	case <-old.exit:
	case <-time.After(10 * time.Second):
		t.Fatal("evicted batcher never closed")
	}
	wg.Wait()
	if err := check(old, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("evicted batcher after its drain: %v, want ErrClosed", err)
	}
	if err := check(succ, 0); err != nil {
		t.Fatalf("successor after the drain: %v", err)
	}
}

// TestServerClosedRefusesNewBatchers: batcherFor racing Close must not
// leak a live batcher.
func TestServerClosedRefusesNewBatchers(t *testing.T) {
	reg, err := New("", 2, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := tinyModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := kernels.MustCompile()
	srv := NewServer(reg, c.Vocab, ServerConfig{MaxBatch: 4})
	srv.Close()
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	if _, err := srv.batcherFor(context.Background(), key); err != ErrClosed {
		t.Fatalf("batcherFor on a closed server = %v, want ErrClosed", err)
	}
}

func TestServerHealthzAndModels(t *testing.T) {
	_, ts := newTestServer(t)
	postPredict(t, ts, api.PathPredict, predictBody(t, "haswell", ObjectiveTime, 0))

	resp, err := http.Get(ts.URL + api.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	var health api.Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" {
		t.Fatalf("health = %+v", health)
	}
	if health.Served < 1 || health.ModelsTrained != 1 {
		t.Fatalf("health counters = %+v", health)
	}

	// Per-route counters live in /metrics.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m[`pnp_http_requests_total{route="/v1/predict"}`] < 1 {
		t.Fatalf("/metrics lacks the /v1/predict request count: %v", m)
	}

	resp, err = http.Get(ts.URL + api.PathModels)
	if err != nil {
		t.Fatal(err)
	}
	var infos []api.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || !infos[0].Cached || infos[0].Key.Machine != "haswell" {
		t.Fatalf("models = %+v", infos)
	}
	if len(infos[0].Meta) == 0 {
		t.Fatalf("model meta missing: %+v", infos[0])
	}
}

// tuneBody builds a tune request body.
func tuneBody(t *testing.T, req api.TuneRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postTune(t *testing.T, url, path string, body []byte) (*http.Response, api.TuneResponse) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var tr api.TuneResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, tr
}

// TestServerTuneStrategies runs one bounded engine session per strategy
// through /v1/tune and checks shape, budgets, traces, and determinism.
func TestServerTuneStrategies(t *testing.T) {
	_, ts := newTestServer(t)
	c := kernels.MustCompile()
	region := c.Regions[0].ID

	// gnn: zero-execution, one pick per Haswell cap, no trace.
	resp, tr := postTune(t, ts.URL, api.PathTune, tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: ObjectiveTime, Strategy: "gnn", RegionID: region,
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gnn status %d", resp.StatusCode)
	}
	if len(tr.Picks) != 4 {
		t.Fatalf("gnn picks = %d, want 4", len(tr.Picks))
	}
	for _, p := range tr.Picks {
		if p.Evals != 0 || len(p.Trace) != 0 {
			t.Fatalf("gnn spent %d evals (trace %d), want 0", p.Evals, len(p.Trace))
		}
		if p.OracleFrac <= 0 || p.OracleFrac > 1.0001 {
			t.Fatalf("gnn oracle frac %g out of range", p.OracleFrac)
		}
	}

	// hybrid: the shortlist budget is spent per cap, the trace records
	// each measurement, and sessions are reproducible from
	// (strategy, seed, budget).
	hybridReq := tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: ObjectiveTime, Strategy: "hybrid", RegionID: region, Budget: 3,
	})
	resp, tr = postTune(t, ts.URL, api.PathTune, hybridReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hybrid status %d", resp.StatusCode)
	}
	for _, p := range tr.Picks {
		if p.Evals != 3 || len(p.Trace) != 3 {
			t.Fatalf("hybrid spent %d evals, trace %d, want 3", p.Evals, len(p.Trace))
		}
	}
	_, tr2 := postTune(t, ts.URL, api.PathTune, hybridReq)
	if !reflect.DeepEqual(tr, tr2) {
		t.Fatalf("hybrid not reproducible: %+v vs %+v", tr, tr2)
	}

	// bliss over the model-free energy objective: one joint pick.
	resp, tr = postTune(t, ts.URL, api.PathTune, tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: "energy", Strategy: "bliss", RegionID: region,
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bliss/energy status %d", resp.StatusCode)
	}
	if len(tr.Picks) != 1 || tr.Picks[0].Evals == 0 || tr.Budget == 0 {
		t.Fatalf("bliss/energy picks = %+v (budget %d)", tr.Picks, tr.Budget)
	}
	if len(tr.Picks[0].Trace) != tr.Picks[0].Evals {
		t.Fatalf("bliss trace %d != evals %d", len(tr.Picks[0].Trace), tr.Picks[0].Evals)
	}

	// opentuner over EDP with an explicit budget.
	resp, tr = postTune(t, ts.URL, api.PathTune, tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: ObjectiveEDP, Strategy: "opentuner", RegionID: region, Budget: 8,
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("opentuner status %d", resp.StatusCode)
	}
	if len(tr.Picks) != 1 || tr.Picks[0].Evals > 8 {
		t.Fatalf("opentuner picks = %+v", tr.Picks)
	}
}

// TestServerTuneRejections pins the tune validation surface to its
// stable codes.
func TestServerTuneRejections(t *testing.T) {
	_, ts := newTestServer(t)
	c := kernels.MustCompile()
	region := c.Regions[0].ID

	cases := []struct {
		name string
		req  api.TuneRequest
		code string
		want string
	}{
		{"unknown strategy", api.TuneRequest{Machine: "haswell", Objective: "time", Strategy: "annealing", RegionID: region}, api.CodeBadRequest, "valid: gnn"},
		{"unknown objective", api.TuneRequest{Machine: "haswell", Objective: "latency", Strategy: "bliss", RegionID: region}, api.CodeBadRequest, "valid: time"},
		{"energy needs search", api.TuneRequest{Machine: "haswell", Objective: "energy", Strategy: "gnn", RegionID: region}, api.CodeBadRequest, "no trained model"},
		{"unknown region", api.TuneRequest{Machine: "haswell", Objective: "time", Strategy: "bliss", RegionID: "nope#9"}, api.CodeRegionNotFound, "unknown region"},
		{"oversized budget", api.TuneRequest{Machine: "haswell", Objective: "time", Strategy: "bliss", RegionID: region, Budget: api.MaxTuneBudget + 1}, api.CodeBudgetExceeded, "budget"},
		{"bad machine", api.TuneRequest{Machine: "epyc", Objective: "time", Strategy: "bliss", RegionID: region}, api.CodeBadRequest, ""},
		{"async rejects like sync", api.TuneRequest{Machine: "haswell", Objective: "time", Strategy: "bliss", RegionID: region, Budget: api.MaxTuneBudget + 1, Async: true}, api.CodeBudgetExceeded, "budget"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+api.PathTune, "application/json", bytes.NewReader(tuneBody(t, tc.req)))
		if err != nil {
			t.Fatal(err)
		}
		body := decodeError(t, resp)
		resp.Body.Close()
		if body.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, body.Error.Code, tc.code, body.Error.Message)
			continue
		}
		if tc.want != "" && !strings.Contains(body.Error.Message, tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, body.Error.Message, tc.want)
		}
	}
}

// pollJob GETs a job until it reaches a terminal status.
func pollJob(t *testing.T, base, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + api.PathJobs + "/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body := decodeError(t, resp)
			resp.Body.Close()
			t.Fatalf("poll %s: %+v", id, body)
		}
		var job api.Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if job.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, job)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerAsyncTuneParity is the acceptance criterion: for the same
// (model, region, strategy, seed, budget), the synchronous /v1/tune
// response and the async job's result are bit-identical — best config
// and full trace.
func TestServerAsyncTuneParity(t *testing.T) {
	_, ts := newTestServer(t)
	c := kernels.MustCompile()

	reqs := []api.TuneRequest{
		{Machine: "haswell", Objective: ObjectiveTime, Strategy: "hybrid", RegionID: c.Regions[0].ID, Budget: 3, Seed: 99},
		{Machine: "haswell", Objective: ObjectiveEDP, Strategy: "opentuner", RegionID: c.Regions[1].ID, Budget: 8, Seed: 7},
		{Machine: "haswell", Objective: "energy", Strategy: "bliss", RegionID: c.Regions[2].ID, Budget: 10},
		{Machine: "haswell", Objective: ObjectiveTime, Strategy: "gnn", RegionID: c.Regions[3].ID},
	}
	for _, req := range reqs {
		name := req.Strategy + "/" + req.Objective

		resp, sync := postTune(t, ts.URL, api.PathTune, tuneBody(t, req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: sync status %d", name, resp.StatusCode)
		}

		async := req
		async.Async = true
		aresp, err := http.Post(ts.URL+api.PathTune, "application/json", bytes.NewReader(tuneBody(t, async)))
		if err != nil {
			t.Fatal(err)
		}
		if aresp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: async status %d, want 202", name, aresp.StatusCode)
		}
		var job api.Job
		if err := json.NewDecoder(aresp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		aresp.Body.Close()
		if job.ID == "" || job.Request.Async {
			t.Fatalf("%s: submitted job = %+v", name, job)
		}
		fin := pollJob(t, ts.URL, job.ID)
		if fin.Status != api.JobDone || fin.Result == nil {
			t.Fatalf("%s: job = %+v", name, fin)
		}
		if !reflect.DeepEqual(sync, *fin.Result) {
			t.Fatalf("%s: async result diverges from sync:\n%+v\n%+v", name, *fin.Result, sync)
		}
	}

	// The jobs listing shows the finished jobs.
	resp, err := http.Get(ts.URL + api.PathJobs)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []api.Job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs) != len(reqs) {
		t.Fatalf("%d jobs listed, want %d", len(jobs), len(reqs))
	}
}

// TestServerJobCancel: cancelling through the HTTP surface — a finished
// job is a no-op, and DELETE answers with the job snapshot.
func TestServerJobCancel(t *testing.T) {
	_, ts := newTestServer(t)
	c := kernels.MustCompile()

	body := tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: ObjectiveTime, Strategy: "hybrid",
		RegionID: c.Regions[0].ID, Budget: 3, Async: true,
	})
	resp, err := http.Post(ts.URL+api.PathTune, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := pollJob(t, ts.URL, job.ID)
	if fin.Status != api.JobDone {
		t.Fatalf("job = %+v", fin)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+api.PathJobs+"/"+job.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var after api.Job
	if err := json.NewDecoder(dresp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || after.Status != api.JobDone {
		t.Fatalf("cancel of finished job = %d %+v", dresp.StatusCode, after)
	}
}

// TestServerShutdownDrains: Shutdown with headroom lets a running async
// job finish; afterwards new work is refused with the unavailable code.
func TestServerShutdownDrains(t *testing.T) {
	srv, ts := newTestServer(t)
	c := kernels.MustCompile()

	body := tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: ObjectiveTime, Strategy: "hybrid",
		RegionID: c.Regions[0].ID, Budget: 3, Async: true,
	})
	resp, err := http.Post(ts.URL+api.PathTune, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wait until a worker has picked the job up: Shutdown cancels jobs
	// still sitting in the queue (correctly), and this test is about the
	// drain of *running* work.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, info := srv.jobs.Get(job.ID)
		if info != nil {
			t.Fatalf("job lost before shutdown: %v", info)
		}
		if snap.Status != api.JobQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)

	// The job either finished (drained) or was cancelled after the
	// deadline — with 10s of headroom on a µs-scale session, it drained.
	fin, info := srv.jobs.Get(job.ID)
	if info != nil {
		t.Fatalf("job lost after shutdown: %v", info)
	}
	if fin.Status != api.JobDone {
		t.Fatalf("job after drain = %+v", fin)
	}

	// New sync work is refused with the stable code — including
	// model-free strategies, which never touch the (closed) batchers.
	for _, strategy := range []string{"gnn", "bliss"} {
		resp2, err := http.Post(ts.URL+api.PathTune, "application/json", bytes.NewReader(tuneBody(t, api.TuneRequest{
			Machine: "haswell", Objective: ObjectiveTime, Strategy: strategy, RegionID: c.Regions[0].ID,
		})))
		if err != nil {
			t.Fatal(err)
		}
		errBody := decodeError(t, resp2)
		resp2.Body.Close()
		if errBody.Error.Code != api.CodeUnavailable {
			t.Fatalf("post-shutdown %s code = %q, want %q", strategy, errBody.Error.Code, api.CodeUnavailable)
		}
	}
}
