package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/gate"
	"pnptuner/internal/kernels"
	"pnptuner/internal/testutil"
)

// TestRunGateOverReplicas runs pnpgate over three in-process replicas
// with a 500ms probe interval and a 10s attempt timeout. A mixed
// predict / sync tune / async job load sees zero errors, the gate's and
// the replicas' /metrics show it, and cancelling ctx drains the gate
// while predicts are in flight and leaves no goroutine behind.
func TestRunGateOverReplicas(t *testing.T) {
	// The cluster's own gate never probes, and every replica resolves
	// every key first, so its batchers and peer connections exist before
	// the goroutine count and are not counted as the run's.
	c := testutil.StartCluster(t, 3, testutil.WithGateHealth(gate.TrackerConfig{ProbeInterval: time.Hour}))
	var preds []api.PredictRequest
	var urls []string
	for i, r := range c.Replicas {
		urls = append(urls, r.URL)
		graph, _ := json.Marshal(kernels.MustCompile().Regions[i].Graph)
		preds = append(preds, api.PredictRequest{Machine: []string{"haswell", "skylake", "skylake"}[i],
			Objective: []string{"time", "time", "edp"}[i], Graph: graph})
	}
	for i := range c.Replicas {
		for _, req := range preds {
			if _, err := c.ReplicaClient(i).Predict(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var logs bytes.Buffer
	addr, done := make(chan string, 1), make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","), "-probe-interval", "500ms",
			"-attempt-timeout", "10s"}, log.New(&logs, "", 0), func(a string) { addr <- a })
	}()
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("run: %v", err)
	}
	stop := sync.OnceValue(func() error { cancel(); return <-done })
	t.Cleanup(func() { stop() })
	cl := client.New(base, client.WithRetries(0, time.Millisecond))

	for i, pred := range preds {
		tune := api.TuneRequest{Machine: pred.Machine, Objective: pred.Objective, Strategy: "hybrid",
			RegionID: kernels.MustCompile().Regions[i].ID, Budget: 1}
		_, err := cl.Predict(ctx, pred)
		if err == nil {
			_, err = cl.Tune(ctx, tune)
		}
		job, jerr := cl.TuneAsync(ctx, tune)
		if jerr == nil {
			job, jerr = cl.Wait(ctx, job.ID, 10*time.Millisecond)
		}
		if err != nil || jerr != nil || job.Status != api.JobDone {
			t.Fatalf("%s/%s: %v, job %+v %v", pred.Machine, pred.Objective, err, job, jerr)
		}
	}

	check := func(text string, patterns ...string) {
		for _, p := range patterns {
			if !regexp.MustCompile(p).MatchString(text) {
				t.Errorf("/metrics lacks %s", p)
			}
		}
	}
	check(testutil.ScrapeText(t, base), `(?m)^# TYPE pnpgate_http_requests_total counter$`,
		`pnpgate_http_requests_total\{route="/v1/predict"\} [1-9]`, `(?m)^pnpgate_served_total [1-9]`,
		`pnpgate_replica_state\{replica="0"\}`, `pnpgate_replica_state\{replica="1"\}`, `pnpgate_replica_state\{replica="2"\}`)
	fleet := ""
	for _, u := range urls {
		// The gate's first probe round lands 500ms after it starts.
		probed := regexp.MustCompile(`pnp_http_requests_total\{route="/v1/healthz"\} [1-9]`)
		text := testutil.ScrapeText(t, u)
		for end := time.Now().Add(5 * time.Second); !probed.MatchString(text) && time.Now().Before(end); text = testutil.ScrapeText(t, u) {
			time.Sleep(20 * time.Millisecond)
		}
		check(text, `(?m)^# TYPE pnp_batch_forward_seconds histogram$`, probed.String())
		fleet += text
	}
	check(fleet, `(?m)^pnp_batch_forward_seconds_count [1-9]`, `(?m)^pnp_registry_models_trained_total [1-9]`)

	// Drain with predicts in flight: each worker stops at its first
	// refused request.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for err := error(nil); err == nil; _, err = cl.Predict(context.Background(), preds[0]) {
			}
		}()
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	wg.Wait()
	if out := logs.String(); !strings.Contains(out, "listening on "+base[len("http://"):]) || !strings.HasSuffix(out, "drained; bye\n") {
		t.Fatalf("log lacks the bound address or the drain:\n%s", out)
	}
	http.DefaultClient.CloseIdleConnections()
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines after run returned, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestRunRejectsBadInput: bad input comes back from run as an error,
// before anything listens.
func TestRunRejectsBadInput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a run that wrongly listens drains at once
	for _, args := range [][]string{{"-replicas", ""}, {"-replicas", " , "}, {"-nosuchflag"}} {
		if run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), log.New(io.Discard, "", 0),
			func(string) { t.Errorf("%v: run listened", args) }) == nil {
			t.Errorf("%v: run returned nil", args)
		}
	}
}
