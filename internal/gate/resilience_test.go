package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
)

// stubPredict writes a minimal valid predict response.
func stubPredict(w http.ResponseWriter, version int) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(api.PredictResponse{
		Machine:      "haswell",
		Objective:    "time",
		Scenario:     defaultScenario,
		Picks:        []api.Pick{{CapW: 40, ConfigIndex: 3, Config: "t4"}},
		ModelVersion: version,
	})
}

// TestHalfOpenTrickle: a half-open replica admits at most
// RecoverSuccesses concurrent requests; releases free slots; leaving
// half-open invalidates stale releases.
func TestHalfOpenTrickle(t *testing.T) {
	tr := NewTracker([]string{"a"}, nil, TrackerConfig{FailThreshold: 1, RecoverSuccesses: 2, ProbeInterval: time.Hour})

	// up: unlimited admissions.
	for i := 0; i < 5; i++ {
		if _, ok := tr.Acquire(0); !ok {
			t.Fatal("up replica refused admission")
		}
	}

	tr.RecordFailure(0) // threshold 1 → down
	if _, ok := tr.Acquire(0); ok {
		t.Fatal("down replica admitted traffic")
	}

	tr.recordSuccess(0, true) // probe success → half-open
	rel1, ok1 := tr.Acquire(0)
	rel2, ok2 := tr.Acquire(0)
	if !ok1 || !ok2 {
		t.Fatal("half-open replica refused its trickle")
	}
	if _, ok := tr.Acquire(0); ok {
		t.Fatal("half-open replica admitted past the trickle bound")
	}
	rel1()
	if _, ok := tr.Acquire(0); !ok {
		t.Fatal("released slot not reusable")
	}

	// Transition out (failure → down) then recover again: rel2 is now a
	// stale release from the previous probation and must not free a
	// slot in the new one.
	tr.RecordFailure(0)
	tr.recordSuccess(0, true)
	a, _ := tr.Acquire(0)
	b, _ := tr.Acquire(0)
	rel2() // stale
	if _, ok := tr.Acquire(0); ok {
		t.Fatal("stale release freed a slot in a new probation")
	}
	_ = a
	_ = b
}

// TestBreakerFlappingConcurrent drives transitions, probes, and
// admissions from many goroutines at once. The assertions are loose —
// the real check is the race detector plus the invariant that the state
// is always one of the three legal values.
func TestBreakerFlappingConcurrent(t *testing.T) {
	tr := NewTracker([]string{"a", "b"}, nil, TrackerConfig{FailThreshold: 2, RecoverSuccesses: 2, ProbeInterval: time.Hour})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (w + n) % 2
				switch n % 5 {
				case 0:
					tr.RecordFailure(i)
				case 1:
					tr.recordSuccess(i, true)
				case 2:
					tr.RecordSuccess(i)
				case 3:
					if rel, ok := tr.Acquire(i); ok {
						rel()
					}
				case 4:
					tr.Routable(i)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		switch st := tr.State(i); st {
		case api.ReplicaUp, api.ReplicaHalfOpen, api.ReplicaDown:
		default:
			t.Fatalf("replica %d in illegal state %q", i, st)
		}
	}
}

// TestGateDegradedHeuristic: with every replica dead and nothing
// cached, a predict for a real machine gets the model-free fallback —
// default config per cap, degraded:true, the graph's region ID —
// instead of a 503.
func TestGateDegradedHeuristic(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	u := dead.URL
	dead.Close()

	_, cl := newTestGate(t, u)
	req := predictReq("haswell")
	req.Graph = api.RawObject(`{"region_id":"gemm.kernel_gemm#0","nodes":[]}`)
	resp, err := cl.Predict(context.Background(), req)
	if err != nil {
		t.Fatalf("expected a degraded answer, got %v", err)
	}
	if !resp.Degraded || resp.DegradedSource != "heuristic" {
		t.Fatalf("degraded=%v source=%q, want true/heuristic", resp.Degraded, resp.DegradedSource)
	}
	if len(resp.Picks) == 0 {
		t.Fatal("degraded heuristic returned no picks")
	}
	if resp.RegionID != "gemm.kernel_gemm#0" {
		t.Fatalf("degraded heuristic region %q, want the graph's", resp.RegionID)
	}
}

// TestGateDegradedCache: a predict served live is remembered; when the
// replica dies, the same (key, graph) question gets the last known good
// answer back, marked degraded with source cache.
func TestGateDegradedCache(t *testing.T) {
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stubPredict(w, 7)
	}))
	g, cl := newTestGate(t, rep.URL)
	ctx := context.Background()

	live, err := cl.Predict(ctx, predictReq("haswell"))
	if err != nil {
		t.Fatalf("live predict: %v", err)
	}
	if live.Degraded {
		t.Fatal("live predict marked degraded")
	}

	rep.Close() // replica gone; transport failures from here on

	resp, err := cl.Predict(ctx, predictReq("haswell"))
	if err != nil {
		t.Fatalf("expected cached degraded answer, got %v", err)
	}
	if !resp.Degraded || resp.DegradedSource != "cache" {
		t.Fatalf("degraded=%v source=%q, want true/cache", resp.Degraded, resp.DegradedSource)
	}
	if resp.ModelVersion != live.ModelVersion || len(resp.Picks) != len(live.Picks) {
		t.Fatalf("cached answer diverged from the live one: %+v vs %+v", resp, live)
	}
	if g.degradedHits.Value() == 0 {
		t.Fatal("degraded counter not incremented")
	}

	// A different graph is a different question: no cache entry, so the
	// heuristic answers.
	other := predictReq("haswell")
	other.Graph = api.RawObject(`{"RegionID":"other"}`)
	resp, err = cl.Predict(ctx, other)
	if err != nil {
		t.Fatalf("heuristic fallback: %v", err)
	}
	if resp.DegradedSource != "heuristic" {
		t.Fatalf("unseen graph served from %q, want heuristic", resp.DegradedSource)
	}
}

// TestGateDeadlineShed: a request arriving with its X-Deadline budget
// already spent is shed with the typed 504 before any routing.
func TestGateDeadlineShed(t *testing.T) {
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stubPredict(w, 1)
	}))
	t.Cleanup(rep.Close)
	g, err := New(Config{Replicas: []string{rep.URL}, Health: TrackerConfig{ProbeInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	t.Cleanup(func() { gs.Close(); g.Close() })

	req, _ := http.NewRequest(http.MethodPost, gs.URL+api.PathPredict, nil)
	req.Header.Set(api.DeadlineHeader, "-3.000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var body api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != api.CodeDeadlineExceeded {
		t.Fatalf("code = %q, want %s", body.Error.Code, api.CodeDeadlineExceeded)
	}

	// A malformed deadline is the client's bug, loudly.
	req2, _ := http.NewRequest(http.MethodPost, gs.URL+api.PathPredict, nil)
	req2.Header.Set(api.DeadlineHeader, "soon")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status = %d, want 400", resp2.StatusCode)
	}
}

// TestGateHedgedPredict: with a slow owner and a fixed hedge delay, the
// hedge fires at the next replica and its answer wins well before the
// owner would have answered.
func TestGateHedgedPredict(t *testing.T) {
	const slow = 400 * time.Millisecond
	mkReplica := func(delay time.Duration) *httptest.Server {
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
			stubPredict(w, 1)
		}))
		t.Cleanup(s.Close)
		return s
	}
	r0 := mkReplica(slow)
	r1 := mkReplica(0)

	g, err := New(Config{
		Replicas:   []string{r0.URL, r1.URL},
		Health:     TrackerConfig{ProbeInterval: time.Hour},
		HedgeDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	t.Cleanup(func() { gs.Close(); g.Close() })
	cl := client.New(gs.URL, client.WithRetries(0, time.Millisecond))

	// Aim at a key replica 0 owns, so the slow replica is always first.
	machine := machineOwnedBy(g.Ring(), 0)
	ctx := context.Background()

	// Warm-up: cold keys never hedge (the first request may be training),
	// so the first predict pays the owner's full latency.
	if _, err := cl.Predict(ctx, predictReq(machine)); err != nil {
		t.Fatalf("warm-up predict: %v", err)
	}
	if g.hedges.Value() != 0 {
		t.Fatal("cold key hedged")
	}

	start := time.Now()
	resp, err := cl.Predict(ctx, predictReq(machine))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged predict: %v", err)
	}
	if resp.Degraded {
		t.Fatal("hedged predict answered degraded")
	}
	if elapsed >= slow {
		t.Fatalf("hedge did not cut latency: %v (owner takes %v)", elapsed, slow)
	}
	if g.hedges.Value() == 0 || g.hedgeWins.Value() == 0 {
		t.Fatalf("hedges=%d wins=%d, want both > 0", g.hedges.Value(), g.hedgeWins.Value())
	}
	// The owner's breaker took no failure: its slow answer was cancelled
	// by the gate, not refused by the replica.
	if st := g.Tracker().State(0); st != api.ReplicaUp {
		t.Fatalf("slow owner marked %s by its own cancelled hedge loser", st)
	}
}

// TestGateAttemptTimeout: a black-holed owner costs one attempt slice,
// not the whole request — the gate fails over and answers.
func TestGateAttemptTimeout(t *testing.T) {
	hole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read notices the
		// gate's disconnect and cancels r.Context() — otherwise this
		// handler outlives the test and Close hangs.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hole.Close)
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stubPredict(w, 1)
	}))
	t.Cleanup(ok.Close)

	g, err := New(Config{
		Replicas:       []string{hole.URL, ok.URL},
		Health:         TrackerConfig{ProbeInterval: time.Hour},
		AttemptTimeout: 50 * time.Millisecond,
		DisableHedge:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	t.Cleanup(func() { gs.Close(); g.Close() })
	cl := client.New(gs.URL, client.WithRetries(0, time.Millisecond))

	machine := machineOwnedBy(g.Ring(), 0)
	start := time.Now()
	resp, err := cl.Predict(context.Background(), predictReq(machine))
	if err != nil {
		t.Fatalf("predict across a black-holed owner: %v", err)
	}
	if resp.Degraded {
		t.Fatal("failover answered degraded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("failover took %v; the attempt timeout did not bound the black hole", elapsed)
	}
	// The black hole counts against the owner's breaker.
	if fails := g.Tracker().Snapshot()[0].ConsecutiveFails; fails == 0 {
		t.Fatal("attempt timeout did not feed the breaker")
	}
}

// TestGateRetryAfterPassthrough: a replica's overloaded shed crosses the
// gate with its Retry-After hint intact, and the gate's own no_replica
// answer carries one too.
func TestGateRetryAfterPassthrough(t *testing.T) {
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.RetryAfterHeader, "1")
		stubError(w, api.CodeOverloaded, "shedding")
	}))
	t.Cleanup(rep.Close)
	g, err := New(Config{Replicas: []string{rep.URL}, Health: TrackerConfig{ProbeInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	t.Cleanup(func() { gs.Close(); g.Close() })

	// Use a fake machine so the degraded heuristic stays out of the way
	// and the overloaded shed surfaces raw.
	body, _ := json.Marshal(predictReq("ghost-machine"))
	resp, err := http.Post(gs.URL+api.PathPredict, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(api.RetryAfterHeader) == "" {
		t.Fatal("Retry-After hint lost crossing the gate")
	}
}

// recorder is a stub replica that keeps every predict body it receives
// and answers after delay, or gives up when the gate cancels the attempt.
type recorder struct {
	mu     sync.Mutex
	bodies [][]byte
}

func newRecorder(t *testing.T, delay time.Duration) (*recorder, *httptest.Server) {
	rec := &recorder{}
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		rec.mu.Lock()
		rec.bodies = append(rec.bodies, body)
		rec.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
		stubPredict(w, 1)
	}))
	t.Cleanup(s.Close)
	return rec, s
}

func (rec *recorder) received() [][]byte {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([][]byte(nil), rec.bodies...)
}

// TestGatePredictForwardsBody: what a replica receives is the request
// the client sent — the first JSON value of the body, trailing bytes
// dropped — and a hedged copy carries the same bytes as the original
// attempt.
func TestGatePredictForwardsBody(t *testing.T) {
	rec0, r0 := newRecorder(t, 300*time.Millisecond) // slow owner: the hedge fires
	rec1, r1 := newRecorder(t, 0)
	g, err := New(Config{
		Replicas:   []string{r0.URL, r1.URL},
		Health:     TrackerConfig{ProbeInterval: time.Hour},
		HedgeDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	t.Cleanup(func() { gs.Close(); g.Close() })

	sent := fmt.Sprintf("{\n  \"machine\": %q, \"scenario\": \"full\",  \"objective\": \"time\",\n"+
		"  \"graph\": {\"region_id\": \"a<b\", \"nodes\": [ {\"kind\": \"instruction\", \"text\": \"x \\u003c y\"} ]}\n}",
		machineOwnedBy(g.Ring(), 0))
	post := func() {
		t.Helper()
		resp, err := http.Post(gs.URL+api.PathPredict, "application/json", strings.NewReader(sent+"  trailing junk"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
	}
	post() // warm-up: cold keys never hedge
	post()
	if g.hedges.Value() == 0 {
		t.Fatal("second predict did not hedge")
	}
	got0, got1 := rec0.received(), rec1.received()
	if len(got0) != 2 || len(got1) != 1 {
		t.Fatalf("owner got %d bodies, hedge target %d; want 2 and 1", len(got0), len(got1))
	}
	if !bytes.Equal(got0[1], got1[0]) {
		t.Fatalf("hedged copy differs from the original attempt:\n%s\n%s", got0[1], got1[0])
	}
	for _, body := range append(got0, got1...) {
		if string(body) != sent {
			t.Fatalf("replica got %q, want the client's bytes %q", body, sent)
		}
	}
}
