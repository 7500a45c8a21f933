package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/kernels"
	"pnptuner/internal/registry"
	"pnptuner/internal/testutil"
)

// serve runs pnpserve with args on an ephemeral port and returns its
// base URL. stop cancels it and fails t unless run drains, logs the
// address it bound and "drained; bye", and returns nil; stop also runs
// at cleanup.
func serve(t *testing.T, args ...string) (url string, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var logs bytes.Buffer
	addr, done := make(chan string, 1), make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), log.New(&logs, "", 0), func(a string) { addr <- a })
	}()
	select {
	case a := <-addr:
		url = "http://" + a
	case err := <-done:
		t.Fatalf("run: %v", err)
	}
	stop = sync.OnceFunc(func() {
		cancel()
		if err, out := <-done, logs.String(); err != nil || !strings.Contains(out, "listening on "+url[len("http://"):]) ||
			!strings.HasSuffix(out, "drained; bye\n") {
			t.Errorf("run: %v\n%s", err, out)
		}
	})
	t.Cleanup(stop)
	return url, stop
}

func haswellPredict() api.PredictRequest {
	graph, _ := json.Marshal(kernels.MustCompile().Regions[0].Graph)
	return api.PredictRequest{Machine: "haswell", Objective: registry.ObjectiveTime, Graph: graph}
}

// TestRunServeRefreshAndDrain boots pnpserve with a one-epoch trainer
// and a low refresh threshold. Measured tunes must advance the served
// version through a canary within three cycles, /metrics must show the
// traffic, and cancelling ctx must drain and leave no goroutine behind.
// internal/registry's server tests pin the rest of the v1 surface.
func TestRunServeRefreshAndDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	url, stop := serve(t, "-epochs", "1", "-job-workers", "2", "-refresh-threshold", "4",
		"-canary-window", "2", "-refresh-epochs", "1")
	ctx := context.Background()
	// The SDK keeps retrying unavailable: a predict that races a canary
	// promotion can reach the displaced batcher after it has closed.
	c := client.New(url, client.WithRetries(5, 500*time.Millisecond))
	if _, err := c.Predict(ctx, haswellPredict()); err != nil { // trains the model
		t.Fatal(err)
	}
	id := registry.Key{Machine: "haswell", Scenario: registry.ScenarioFull, Objective: registry.ObjectiveTime}.ID()
	base, err := c.Model(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	promoted := false
	for cycle := 1; cycle <= 3 && !promoted; cycle++ {
		job, err := c.TuneAsync(ctx, api.TuneRequest{Machine: "haswell", Objective: registry.ObjectiveTime,
			Strategy: "hybrid", RegionID: kernels.MustCompile().Regions[0].ID, Budget: 3,
			Seed: uint64(77000 + cycle), MeasureBudget: 8})
		if err == nil {
			job, err = c.Wait(ctx, job.ID, 20*time.Millisecond)
		}
		if err != nil || job.Result == nil || job.Result.MeasuredRuns == 0 || len(job.Result.Samples) == 0 ||
			job.Result.ModelVersion < base.Version {
			t.Fatalf("measured tune: %+v, %v", job, err)
		}
		// Live predicts score the canary until its verdict; a demotion
		// is a legitimate one, so measure again.
		for end := time.Now().Add(30 * time.Second); time.Now().Before(end); {
			det, err := c.Model(ctx, id)
			if pred, perr := c.Predict(ctx, haswellPredict()); err != nil || perr != nil || len(pred.Picks) == 0 {
				t.Fatal("predict during canary:", err, perr)
			}
			demoted := 0
			for _, ev := range det.History {
				if ev.Event == api.EventDemoted {
					demoted++
				}
			}
			if promoted = det.Version > base.Version; promoted || det.CanaryVersion == 0 && demoted == cycle {
				break
			}
		}
	}
	if !promoted {
		t.Fatalf("served version never advanced past v%d in three measure→canary cycles", base.Version)
	}

	text := testutil.ScrapeText(t, url)
	for _, want := range []string{`(?m)^# TYPE pnp_http_requests_total counter$`, `(?m)^# TYPE pnp_batch_forward_seconds histogram$`,
		`pnp_http_requests_total\{route="/v1/predict"\} [1-9]`, `(?m)^pnp_batch_forward_seconds_count [1-9]`,
		`pnp_jobs_total\{outcome="done"\} [1-9]`, `(?m)^pnp_model_promotions_total [1-9]`} {
		if !regexp.MustCompile(want).MatchString(text) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	stop()
	http.DefaultClient.CloseIdleConnections()
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines after run returned, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestRunPeerFetch runs two pnpserves whose -peers name each other: the
// second resolves a key the first has trained by fetching its blob.
func TestRunPeerFetch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0") // reserves the second's port for the first's -peers
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	first, _ := serve(t, "-epochs", "1", "-peers", "http://"+ln.Addr().String())
	second, _ := serve(t, "-addr", ln.Addr().String(), "-epochs", "1", "-peers", first)
	for _, url := range []string{first, second} {
		if _, err := client.New(url).Predict(context.Background(), haswellPredict()); err != nil {
			t.Fatal(err)
		}
	}
	if m := testutil.Scrape(t, second); m["pnp_registry_models_fetched_total"] != 1 || m["pnp_registry_models_trained_total"] != 0 {
		t.Fatalf("second replica fetched %v and trained %v models, want 1 and 0",
			m["pnp_registry_models_fetched_total"], m["pnp_registry_models_trained_total"])
	}
}

// TestRunRejectsBadInput: bad input comes back from run as an error,
// before anything listens.
func TestRunRejectsBadInput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a run that wrongly listens drains at once
	for _, args := range [][]string{{"-preload", "haswell"}, {"-preload", "nosuchmachine/time"}, {"-nosuchflag"}} {
		if run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), log.New(io.Discard, "", 0),
			func(string) { t.Errorf("%v: run listened", args) }) == nil {
			t.Errorf("%v: run returned nil", args)
		}
	}
}
