package testutil_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/loadgen"
	"pnptuner/internal/registry"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/testutil"
)

// TestServingContract runs one table of wire cases against both serving
// binaries' handlers — the gate and a replica — because both must frame
// and count a v1 response the same way: X-Request-ID echoed or minted,
// X-Deadline parsed and enforced before any routing, every error
// envelope carrying its request_id, backpressure answers carrying
// Retry-After, and each mux route's *_http_* series moving in /metrics.
func TestServingContract(t *testing.T) {
	// The replica's predict route admits one request at a time, and its
	// trainer blocks until released: one cold predict parked in training
	// holds the slot, so every other predict is shed as overloaded.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	c := testutil.StartCluster(t, 1,
		testutil.WithServerConfig(func(cfg *registry.ServerConfig) { cfg.MaxInflight = 1 }),
		testutil.WithTrainer(func(k registry.Key) (*core.Model, core.ModelMeta, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			return testutil.TinyTrainer(k)
		}))

	tiers := []struct{ name, url, family string }{
		{"gate", c.GateURL, "pnpgate"},
		{"replica", c.Replicas[0].URL, "pnp"},
	}
	cases := []struct {
		name         string
		method, path string
		requestID    string // sent as X-Request-ID when set
		deadline     string // sent as X-Deadline when set
		status       int
		code         string // envelope code when status is an error
		route        string // mux pattern whose *_http_* series must move
	}{
		{name: "echoes the request ID", method: http.MethodGet, path: api.PathHealthz,
			requestID: "contract-1", status: http.StatusOK, route: api.PathHealthz},
		{name: "mints a request ID", method: http.MethodGet, path: api.PathHealthz,
			status: http.StatusOK, route: api.PathHealthz},
		{name: "malformed deadline", method: http.MethodGet, path: api.PathHealthz,
			requestID: "contract-2", deadline: "abc", status: http.StatusBadRequest, code: api.CodeBadRequest},
		{name: "spent deadline", method: http.MethodGet, path: api.PathHealthz,
			requestID: "contract-3", deadline: "-1", status: http.StatusGatewayTimeout, code: api.CodeDeadlineExceeded},
		{name: "huge deadline is not spent", method: http.MethodGet, path: api.PathHealthz,
			deadline: "1e300", status: http.StatusOK, route: api.PathHealthz},
		{name: "route error", method: http.MethodGet, path: api.PathPredict,
			status: http.StatusMethodNotAllowed, code: api.CodeMethodNotAllowed, route: api.PathPredict},
	}

	for _, tier := range tiers {
		for _, tc := range cases {
			t.Run(tier.name+"/"+tc.name, func(t *testing.T) {
				before := scrape(t, tier.url)
				req, _ := http.NewRequest(tc.method, tier.url+tc.path, nil)
				if tc.requestID != "" {
					req.Header.Set(telemetry.TraceHeader, tc.requestID)
				}
				if tc.deadline != "" {
					req.Header.Set(api.DeadlineHeader, tc.deadline)
				}
				resp := checkResponse(t, req, tc.status, tc.code)
				id := resp.Header.Get(telemetry.TraceHeader)
				if id == "" || (tc.requestID != "" && id != tc.requestID) {
					t.Fatalf("%s = %q, sent %q", telemetry.TraceHeader, id, tc.requestID)
				}
				if tc.route == "" {
					return
				}
				after := scrape(t, tier.url)
				series := []string{tier.family + "_http_requests_total"}
				if tc.status >= 400 {
					series = append(series, tier.family+"_http_errors_total")
				}
				for _, name := range series {
					key := name + `{route="` + tc.route + `"}`
					if after[key] <= before[key] {
						t.Fatalf("%s did not go up (%v → %v)", key, before[key], after[key])
					}
				}
			})
		}
	}

	// Park one cold predict on the replica, then both tiers shed.
	body, _ := json.Marshal(api.PredictRequest{Machine: "haswell", Objective: "time", Graph: corpusGraph(t, 0)})
	held := make(chan struct{})
	go func() {
		defer close(held)
		if resp, err := http.Post(c.Replicas[0].URL+api.PathPredict, "application/json", bytes.NewReader(body)); err == nil {
			resp.Body.Close()
		}
	}()
	t.Cleanup(func() { close(release); <-held }) // runs before the cluster's teardown
	select {
	case <-entered:
	case <-held:
		t.Fatal("the parked predict returned before reaching training")
	}
	// A machine no heuristic knows keeps the gate's degraded path from
	// answering in place of the replica's shed.
	shed, _ := json.Marshal(api.PredictRequest{Machine: "ghost-machine", Objective: "time", Graph: api.RawObject(`{}`)})
	for _, tier := range tiers {
		t.Run(tier.name+"/backpressure", func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodPost, tier.url+api.PathPredict, bytes.NewReader(shed))
			resp := checkResponse(t, req, http.StatusServiceUnavailable, api.CodeOverloaded)
			if got, want := resp.Header.Get(api.RetryAfterHeader), strconv.Itoa(api.RetryAfterSecs(api.CodeOverloaded)); got != want {
				t.Fatalf("%s = %q, want %q", api.RetryAfterHeader, got, want)
			}
		})
	}
}

// checkResponse sends req and checks its status and, for an error, the
// envelope's code and request_id (which must match the response's
// X-Request-ID).
func checkResponse(t *testing.T, req *http.Request, status int, code string) *http.Response {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	if code == "" {
		return resp
	}
	var body api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if body.Error.Code != code {
		t.Fatalf("code = %q, want %q (%s)", body.Error.Code, code, body.Error.Message)
	}
	if id := resp.Header.Get(telemetry.TraceHeader); body.RequestID == "" || body.RequestID != id {
		t.Fatalf("envelope request_id = %q, header %q", body.RequestID, id)
	}
	return resp
}

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	m, err := loadgen.ScrapeMetrics(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
