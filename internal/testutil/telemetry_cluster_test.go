package testutil_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/registry"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/testutil"
)

// fetchTrace pulls one process's /v1/traces/{id}; ok=false on 404
// (the process never saw the trace, or evicted it).
func fetchTrace(t *testing.T, baseURL, id string) (telemetry.Trace, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + api.PathTraces + "/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return telemetry.Trace{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s/%s: %d", baseURL, api.PathTraces, id, resp.StatusCode)
	}
	var tr telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr, true
}

// findSpan returns the first span with the given name, or nil.
func findSpan(tr telemetry.Trace, name string) *telemetry.Span {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return nil
}

// TestClusterTraceSpansGateAndReplica is the cross-hop tracing e2e: one
// gated predict carrying a caller-chosen X-Request-ID yields the SAME
// trace ID at both hops — the gate's /v1/traces/{id} holds the root
// span and the proxied attempt, the owning replica's /v1/traces/{id}
// holds its own root span plus the batcher's queue and forward spans —
// all with real timings. Then both processes' /metrics expositions are
// scraped through testutil.Scrape and checked for the families the
// request must have moved.
func TestClusterTraceSpansGateAndReplica(t *testing.T) {
	c := testutil.StartCluster(t, 2)
	cl := c.Client(client.WithRetries(0, time.Millisecond))
	graph := corpusGraph(t, 0)
	req := api.PredictRequest{
		Machine: "haswell", Objective: registry.ObjectiveTime, Graph: graph,
	}

	// Warm the key first so the traced request exercises the serving
	// path (batcher → forward), not a one-off training.
	if _, err := cl.Predict(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	const traceID = "e2e-trace-0001"
	ctx := telemetry.WithTraceID(context.Background(), traceID)
	if _, err := cl.Predict(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Gate half: root span for the HTTP request plus the replica attempt.
	gtr, ok := fetchTrace(t, c.GateURL, traceID)
	if !ok {
		t.Fatalf("gate has no trace %q", traceID)
	}
	if gtr.ID != traceID {
		t.Fatalf("gate trace ID = %q, want %q", gtr.ID, traceID)
	}
	root := findSpan(gtr, "http POST "+api.PathPredict)
	if root == nil {
		t.Fatalf("gate trace lacks the root span: %+v", gtr.Spans)
	}
	if root.DurNs <= 0 {
		t.Fatalf("gate root span has no duration: %+v", root)
	}
	attempt := findSpan(gtr, "gate.attempt")
	if attempt == nil {
		t.Fatalf("gate trace lacks the replica attempt span: %+v", gtr.Spans)
	}
	if attempt.DurNs <= 0 || attempt.Attrs["outcome"] != "ok" {
		t.Fatalf("attempt span = %+v, want positive duration and outcome ok", attempt)
	}

	// Replica half: the same ID, on exactly one replica (the request was
	// not hedged — the key is warm and the adaptive trigger has no p99
	// yet), carrying the replica's root span and the batcher spans.
	served := -1
	var rtr telemetry.Trace
	for i := range c.Replicas {
		if tr, ok := fetchTrace(t, c.Replicas[i].URL, traceID); ok {
			if served >= 0 {
				t.Fatalf("trace %q on replicas %d and %d; an unhedged predict touches one", traceID, served, i)
			}
			served, rtr = i, tr
		}
	}
	if served < 0 {
		t.Fatalf("no replica holds trace %q", traceID)
	}
	if rroot := findSpan(rtr, "http POST "+api.PathPredict); rroot == nil || rroot.DurNs <= 0 {
		t.Fatalf("replica root span missing or untimed: %+v", rtr.Spans)
	}
	if q := findSpan(rtr, "batch.queue"); q == nil || q.DurNs < 0 {
		t.Fatalf("replica trace lacks a batch.queue span: %+v", rtr.Spans)
	}
	fw := findSpan(rtr, "batch.forward")
	if fw == nil || fw.DurNs <= 0 {
		t.Fatalf("replica trace lacks a timed batch.forward span: %+v", rtr.Spans)
	}
	if fw.Attrs["batch_size"] == "" {
		t.Fatalf("forward span lacks batch_size: %+v", fw)
	}

	// Metrics: both processes expose parseable text with the families
	// the two predicts must have moved.
	gm := testutil.Scrape(t, c.GateURL)
	if v := gm[`pnpgate_http_requests_total{route="/v1/predict"}`]; v < 2 {
		t.Fatalf("gate predict request counter = %v, want >= 2", v)
	}
	if gm["pnpgate_served_total"] < 2 {
		t.Fatalf("pnpgate_served_total = %v, want >= 2", gm["pnpgate_served_total"])
	}
	for _, series := range []string{`pnpgate_replica_state{replica="0"}`, `pnpgate_replica_state{replica="1"}`} {
		if _, ok := gm[series]; !ok {
			t.Fatalf("gate exposition lacks %s", series)
		}
	}

	rm := testutil.Scrape(t, c.Replicas[served].URL)
	if v := rm[`pnp_http_requests_total{route="/v1/predict"}`]; v < 2 {
		t.Fatalf("replica predict request counter = %v, want >= 2", v)
	}
	if rm["pnp_batch_forward_seconds_count"] < 1 {
		t.Fatalf("pnp_batch_forward_seconds_count = %v, want >= 1", rm["pnp_batch_forward_seconds_count"])
	}
	if rm["pnp_registry_models_trained_total"]+rm["pnp_registry_models_fetched_total"] < 1 {
		t.Fatal("replica trained/fetched counters never moved")
	}
}
