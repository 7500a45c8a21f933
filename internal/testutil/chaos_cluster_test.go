package testutil_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/chaos"
	"pnptuner/internal/client"
	"pnptuner/internal/gate"
	"pnptuner/internal/registry"
	"pnptuner/internal/testutil"
)

// chaosPredict sends one predict through the gate and fails the test on
// any error — the contract under chaos is zero unexpected client-visible
// failures, only typed outcomes.
func chaosPredict(t *testing.T, cl *client.Client, machine string, graph api.RawObject) *api.PredictResponse {
	t.Helper()
	out, err := cl.Predict(context.Background(), api.PredictRequest{
		Machine: machine, Objective: registry.ObjectiveTime, Graph: graph,
	})
	if err != nil {
		t.Fatalf("predict %s: %v", machine, err)
	}
	return out
}

// TestClusterChaosErrorInjection: one replica's network path drops 40%
// of connections mid-flight. Idempotent predicts fail over inside the
// gate, so the client sees zero errors even while the proxy is provably
// injecting.
func TestClusterChaosErrorInjection(t *testing.T) {
	c := testutil.StartCluster(t, 3, testutil.WithChaos(42))
	cl := c.Client(client.WithRetries(0, time.Millisecond))
	graph := corpusGraph(t, 0)

	// Warm every key fault-free so training never races the chaos.
	for _, k := range clusterKeys() {
		chaosPredict(t, cl, k.Machine, graph)
	}

	victim := c.Gate.Ring().Owner(gate.RouteKey("haswell", registry.ScenarioFull, registry.ObjectiveTime))
	c.Chaos[victim].SetFaults(chaos.Faults{ErrorRate: 0.4})

	for round := 0; round < 15; round++ {
		for _, k := range clusterKeys() {
			chaosPredict(t, cl, k.Machine, graph)
		}
	}

	if got := c.Chaos[victim].Stats().Errors; got == 0 {
		t.Fatal("proxy injected no errors — the suite tested nothing")
	}
}

// TestClusterChaosLatencyHedging: the owner of a hot key slows to
// 300ms; with a 25ms hedge trigger the gate races the next
// preference-order replica and answers far below the injected latency.
func TestClusterChaosLatencyHedging(t *testing.T) {
	c := testutil.StartCluster(t, 3,
		testutil.WithChaos(7),
		testutil.WithGateConfig(func(g *gate.Config) { g.HedgeDelay = 25 * time.Millisecond }),
	)
	cl := c.Client(client.WithRetries(0, time.Millisecond))
	graph := corpusGraph(t, 0)

	// Warm the key first: cold predicts may train and must never hedge
	// (a hedged cold miss would double-train).
	chaosPredict(t, cl, "haswell", graph)

	owner := c.Gate.Ring().Owner(gate.RouteKey("haswell", registry.ScenarioFull, registry.ObjectiveTime))
	c.Chaos[owner].SetFaults(chaos.Faults{Latency: 300 * time.Millisecond})

	start := time.Now()
	out := chaosPredict(t, cl, "haswell", graph)
	elapsed := time.Since(start)

	if out.Degraded {
		t.Fatal("hedged predict answered from the degraded path")
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("hedging did not beat the injected latency: %v", elapsed)
	}
	h, err := cl.GateHealth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Hedges == 0 || h.HedgeWins == 0 {
		t.Fatalf("hedges=%d wins=%d, want both > 0", h.Hedges, h.HedgeWins)
	}
	// The slow replica answered late, not wrongly: no breaker damage.
	if st := h.Replicas[owner].State; st != api.ReplicaUp {
		t.Fatalf("slow owner marked %s, want up", st)
	}
}

// TestClusterChaosPartitionFailover: the owner's path black-holes
// (silence, not refusal). The per-attempt timeout converts the hang
// into a transport failure and the predict fails over within a bounded
// window instead of inheriting the partition's infinite wait.
func TestClusterChaosPartitionFailover(t *testing.T) {
	c := testutil.StartCluster(t, 3,
		testutil.WithChaos(11),
		testutil.WithGateConfig(func(g *gate.Config) {
			g.AttemptTimeout = 150 * time.Millisecond
			g.DisableHedge = true
		}),
	)
	cl := c.Client(client.WithRetries(0, time.Millisecond))
	graph := corpusGraph(t, 0)
	chaosPredict(t, cl, "haswell", graph)

	owner := c.Gate.Ring().Owner(gate.RouteKey("haswell", registry.ScenarioFull, registry.ObjectiveTime))
	c.Chaos[owner].SetFaults(chaos.Faults{Partition: true})

	start := time.Now()
	out := chaosPredict(t, cl, "haswell", graph)
	elapsed := time.Since(start)

	if out.Degraded {
		t.Fatal("partition failover answered from the degraded path")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("failover took %v, want bounded by the attempt timeout", elapsed)
	}
	if got := c.Chaos[owner].Stats().Partitions; got == 0 {
		t.Fatal("proxy black-holed nothing — the suite tested nothing")
	}
	// Sustained black-holing walks the breaker down; traffic keeps
	// succeeding around it the whole way.
	for i := 0; i < 5; i++ {
		chaosPredict(t, cl, "haswell", graph)
	}
	c.WaitState(t, owner, api.ReplicaDown, 10*time.Second)
	chaosPredict(t, cl, "haswell", graph)
}

// TestClusterChaosAllFaults arms three faults at once, one per replica:
// 30ms±10ms latency, 5% connection kills and a full partition. Once the
// partitioned replica is down and a warm-up has trained every key,
// predicts with a 5 s deadline see zero errors and a p99 under 1 s.
func TestClusterChaosAllFaults(t *testing.T) {
	c := testutil.StartCluster(t, 3, testutil.WithChaos(1),
		testutil.WithGateHealth(gate.TrackerConfig{ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond}),
		testutil.WithGateConfig(func(g *gate.Config) { g.AttemptTimeout = 10 * time.Second }))
	c.Chaos[0].SetFaults(chaos.Faults{Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond})
	c.Chaos[1].SetFaults(chaos.Faults{ErrorRate: 0.05})
	c.Chaos[2].SetFaults(chaos.Faults{Partition: true})
	c.WaitState(t, 2, api.ReplicaDown, 5*time.Second)
	cl := c.Client(client.WithRetries(0, time.Millisecond))
	graphs := []api.RawObject{corpusGraph(t, 0), corpusGraph(t, 1)}
	var lat []time.Duration
	for round := -1; round < 4; round++ { // round -1 is the unasserted warm-up
		for _, k := range clusterKeys() {
			for _, g := range graphs {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				start := time.Now()
				_, err := cl.Predict(ctx, api.PredictRequest{Machine: k.Machine, Objective: k.Objective, Graph: g})
				cancel()
				if round < 0 {
					continue
				}
				if err != nil {
					t.Fatalf("predict %s: %v", k, err)
				}
				lat = append(lat, time.Since(start))
			}
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p99 := lat[len(lat)*99/100]; p99 >= time.Second {
		t.Fatalf("p99 %v, want under 1s", p99)
	}
}

// TestClusterDeadlineShedE2E: a request whose X-Deadline budget cannot
// possibly be met is shed as a typed deadline_exceeded 504 — at the
// gate, and independently at a replica — while a generous budget passes
// untouched.
func TestClusterDeadlineShedE2E(t *testing.T) {
	c := testutil.StartCluster(t, 2)
	cl := c.Client(client.WithRetries(0, time.Millisecond))
	graph := corpusGraph(t, 0)
	chaosPredict(t, cl, "haswell", graph)

	body, err := json.Marshal(api.PredictRequest{
		Machine: "haswell", Objective: registry.ObjectiveTime, Graph: graph,
	})
	if err != nil {
		t.Fatal(err)
	}

	post := func(base, deadline string) (*http.Response, api.ErrorBody) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/predict", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if deadline != "" {
			req.Header.Set(api.DeadlineHeader, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb api.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp, eb
	}

	for _, target := range []struct {
		name, base string
	}{
		{"gate", c.GateURL},
		{"replica", c.Replicas[0].URL},
	} {
		// 50µs of remaining budget: positive (so it passes admission and
		// exercises the in-flight timeout), but unmeetable.
		resp, eb := post(target.base, "0.050")
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: tiny budget: status %d, want 504", target.name, resp.StatusCode)
		}
		if eb.Error.Code != api.CodeDeadlineExceeded {
			t.Fatalf("%s: tiny budget: body %+v, want code %s", target.name, eb, api.CodeDeadlineExceeded)
		}

		resp, _ = post(target.base, api.FormatDeadline(10*time.Second))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: generous budget: status %d, want 200", target.name, resp.StatusCode)
		}

		resp, eb = post(target.base, "soon")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: malformed deadline: status %d, want 400", target.name, resp.StatusCode)
		}
	}
}

// TestClusterDegradedServing: every replica dies. The gate still
// answers — from the last-known-good cache for a graph it has served,
// from the model-free heuristic for one it has not — and says so with
// degraded: true instead of 503ing the fleet's consumers.
func TestClusterDegradedServing(t *testing.T) {
	c := testutil.StartCluster(t, 2)
	cl := c.Client(client.WithRetries(0, time.Millisecond))
	graph := corpusGraph(t, 0)

	live := chaosPredict(t, cl, "haswell", graph)
	if live.Degraded {
		t.Fatal("healthy cluster served degraded")
	}

	for _, r := range c.Replicas {
		r.Kill()
	}

	cached := chaosPredict(t, cl, "haswell", graph)
	if !cached.Degraded || cached.DegradedSource != "cache" {
		t.Fatalf("degraded=%v source=%q, want cached last-known-good", cached.Degraded, cached.DegradedSource)
	}
	if len(cached.Picks) != len(live.Picks) {
		t.Fatalf("cached degraded answer lost picks: %d vs %d", len(cached.Picks), len(live.Picks))
	}

	fresh := chaosPredict(t, cl, "haswell", corpusGraph(t, 1))
	if !fresh.Degraded || fresh.DegradedSource != "heuristic" {
		t.Fatalf("degraded=%v source=%q, want heuristic fallback", fresh.Degraded, fresh.DegradedSource)
	}
	if len(fresh.Picks) == 0 {
		t.Fatal("heuristic degraded answer carries no picks")
	}
}
