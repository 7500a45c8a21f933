package loadgen

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/kernels"
	"pnptuner/internal/registry"
	"pnptuner/internal/testutil"
)

// TestRunAgainstCluster drives a short mixed run (predicts over two
// regions, model listings) through the gate of a real 2-replica cluster
// and reads it back the way the benchmark ledger does: the gate and the
// replicas summed, each scraped before and after, then MetricsDelta.
// The gate's per-route families must have moved by exactly the requests
// sent, with no error series; the replicas must have served the predicts.
func TestRunAgainstCluster(t *testing.T) {
	c := testutil.StartCluster(t, 2)
	cl := c.Client(client.WithRetries(0, time.Millisecond))
	ctx := context.Background()
	corpus := kernels.MustCompile()
	var graphs []api.RawObject
	for i := 0; i < 2; i++ {
		b, err := json.Marshal(corpus.Regions[i].Graph)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, b)
	}
	scrapeFleet := func() (gate, replicas map[string]float64) {
		replicas = map[string]float64{}
		for _, r := range c.Replicas {
			for k, v := range scrape(t, r.URL) {
				replicas[k] += v
			}
		}
		return scrape(t, c.GateURL), replicas
	}

	gateBefore, replicasBefore := scrapeFleet()
	const rounds = 10
	for i := 0; i < rounds; i++ {
		for _, g := range graphs {
			if _, err := cl.Predict(ctx, api.PredictRequest{
				Machine: "haswell", Objective: registry.ObjectiveTime, Graph: g,
			}); err != nil {
				t.Fatalf("predict %d: %v", i, err)
			}
		}
		if _, err := cl.ListModels(ctx); err != nil {
			t.Fatalf("list models %d: %v", i, err)
		}
	}
	gateAfter, replicasAfter := scrapeFleet()
	gate := MetricsDelta(gateBefore, gateAfter)
	replicas := MetricsDelta(replicasBefore, replicasAfter)

	predict := `{route="` + api.PathPredict + `"}`
	models := `{route="` + api.PathModels + `"}`
	for k, want := range map[string]float64{
		"pnpgate_http_requests_total" + predict:                 rounds * 2,
		"pnpgate_http_request_duration_seconds_count" + predict: rounds * 2,
		"pnpgate_http_requests_total" + models:                  rounds,
		"pnpgate_http_request_duration_seconds_count" + models:  rounds,
	} {
		if got := gate[k]; got != want {
			t.Errorf("gate delta %s = %v, want %v", k, got, want)
		}
	}
	if s := gate["pnpgate_http_request_duration_seconds_sum"+predict]; s <= 0 {
		t.Errorf("gate predict latency sum moved by %v, want > 0", s)
	}
	for k, v := range gate {
		if strings.HasPrefix(k, "pnpgate_http_errors_total") {
			t.Errorf("gate error series moved: %s by %v", k, v)
		}
	}
	// A hedged predict reaches two replicas, so the fleet may count more.
	if got := replicas["pnp_http_requests_total"+predict]; got < rounds*2 {
		t.Errorf("replicas served %v predicts, want ≥ %d", got, rounds*2)
	}
	if got := replicas["pnp_http_request_duration_seconds_count"+predict]; got < rounds*2 {
		t.Errorf("replica predict latency count moved by %v, want ≥ %d", got, rounds*2)
	}
}
