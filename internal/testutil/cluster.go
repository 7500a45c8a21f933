// Package testutil spins whole in-process serving clusters — N
// pnpserve replicas plus one pnpgate router on ephemeral ports — so
// cluster behaviour (placement, failover, replication, recovery) is
// testable with `go test` alone: no binaries, no fixed ports, full
// cleanup via t.Cleanup. Replicas can be killed and restarted
// mid-test to inject faults; each keeps its on-disk model store and
// per-replica training counter across restarts, exactly like a
// crashed process coming back on the same address.
package testutil

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnptuner/internal/chaos"
	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/gate"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/registry"
	"pnptuner/internal/space"
)

// config collects StartCluster options.
type config struct {
	trainer    registry.TrainFunc
	trainDelay time.Duration
	health     gate.TrackerConfig
	gateMod    func(*gate.Config)
	serverMod  func(*registry.ServerConfig)
	chaosSeed  int64
	withChaos  bool
}

// Option tunes StartCluster.
type Option func(*config)

// WithTrainer swaps the per-replica train-on-miss function (default
// TinyTrainer). The cluster wraps it with the replica's Trains counter
// either way.
func WithTrainer(f registry.TrainFunc) Option { return func(c *config) { c.trainer = f } }

// WithTrainDelay makes every training dawdle, widening the window in
// which concurrent cold requests can race a training.
func WithTrainDelay(d time.Duration) Option { return func(c *config) { c.trainDelay = d } }

// WithGateHealth tunes the gate's circuit breakers and prober. The
// default probes every 20ms with threshold 3 / recovery 2, so a killed
// replica is detected within ~100ms of test time.
func WithGateHealth(h gate.TrackerConfig) Option { return func(c *config) { c.health = h } }

// WithGateConfig applies mod to the gate's config after the defaults
// are set — tests tune attempt timeouts, hedging, or anything else
// without testutil growing one option per knob.
func WithGateConfig(mod func(*gate.Config)) Option { return func(c *config) { c.gateMod = mod } }

// WithServerConfig applies mod to every replica's ServerConfig —
// admission limits, batching, refresh.
func WithServerConfig(mod func(*registry.ServerConfig)) Option {
	return func(c *config) { c.serverMod = mod }
}

// WithChaos inserts a fault-injecting chaos proxy in front of every
// replica: the gate routes through the proxies (Cluster.Chaos, gate
// index order) while replica-to-replica traffic (peer model fetch)
// stays direct. Proxies start fault-free; tests arm them per replica
// with SetFaults/SetRoute. seed fixes each proxy's randomness (proxy i
// uses seed+i).
func WithChaos(seed int64) Option {
	return func(c *config) {
		c.withChaos = true
		c.chaosSeed = seed
	}
}

// Cluster is a running gate + replicas fleet.
type Cluster struct {
	// Gate is the router; GateURL its HTTP base.
	Gate    *gate.Gate
	GateURL string
	// Replicas in gate index order.
	Replicas []*Replica
	// Chaos holds the per-replica fault proxies when the cluster was
	// started WithChaos (gate index order; nil otherwise).
	Chaos []*chaos.Proxy

	pool     *client.Pool
	gateHTTP *httptest.Server
}

// Replica is one in-process pnpserve: a registry + API server on a
// stable address. Kill / Restart simulate a crash and a reboot — the
// on-disk store and address survive, in-memory state (cache, jobs)
// does not.
type Replica struct {
	Index int
	URL   string
	Dir   string
	// Trains counts train-on-miss invocations across restarts: the
	// cluster-wide sum proves single-flight training.
	Trains atomic.Int64

	cfg   *config
	peers func() []string // all replica URLs, self included (skipped)

	mu      sync.Mutex
	running bool
	addr    string
	ln      net.Listener
	srv     *registry.Server
	http    *http.Server
	pool    *client.Pool
}

// StartCluster boots n replicas and a gate over them, registers full
// cleanup on t, and returns the running cluster. Replicas train with
// TinyTrainer by default (instant, deterministic) and fetch cold
// models from peers before training, exactly like production replicas
// configured with -peers.
func StartCluster(t testing.TB, n int, opts ...Option) *Cluster {
	t.Helper()
	cfg := &config{
		trainer: TinyTrainer,
		health: gate.TrackerConfig{
			FailThreshold:    3,
			RecoverSuccesses: 2,
			ProbeInterval:    20 * time.Millisecond,
			ProbeTimeout:     2 * time.Second,
		},
	}
	for _, o := range opts {
		o(cfg)
	}

	pool := client.NewPool(client.WithRetries(0, time.Millisecond))
	c := &Cluster{pool: pool}

	urls := make([]string, n)
	for i := 0; i < n; i++ {
		r := &Replica{
			Index: i,
			Dir:   t.TempDir(),
			cfg:   cfg,
			pool:  pool,
			peers: func() []string { return urls },
		}
		if err := r.start("127.0.0.1:0"); err != nil {
			t.Fatalf("start replica %d: %v", i, err)
		}
		urls[i] = r.URL
		c.Replicas = append(c.Replicas, r)
	}

	// With chaos on, the gate routes through per-replica fault proxies;
	// peer fetch (r.peers) keeps the direct URLs, mirroring production
	// where the fault domain is the gate↔replica network path.
	gateURLs := urls
	var chaosHTTP []*httptest.Server
	if cfg.withChaos {
		gateURLs = make([]string, n)
		for i, u := range urls {
			p, err := chaos.New(u, cfg.chaosSeed+int64(i))
			if err != nil {
				t.Fatalf("start chaos proxy %d: %v", i, err)
			}
			ps := httptest.NewServer(p)
			c.Chaos = append(c.Chaos, p)
			chaosHTTP = append(chaosHTTP, ps)
			gateURLs[i] = ps.URL
		}
	}

	gcfg := gate.Config{Replicas: gateURLs, Health: cfg.health}
	if cfg.gateMod != nil {
		cfg.gateMod(&gcfg)
	}
	g, err := gate.New(gcfg)
	if err != nil {
		t.Fatalf("start gate: %v", err)
	}
	c.Gate = g
	c.gateHTTP = httptest.NewServer(g.Handler())
	c.GateURL = c.gateHTTP.URL

	t.Cleanup(func() {
		c.gateHTTP.Close()
		g.Close()
		for _, ps := range chaosHTTP {
			ps.Close()
		}
		for _, r := range c.Replicas {
			r.Kill()
		}
		pool.Close()
	})
	return c
}

// Client returns a fresh SDK client against the gate.
func (c *Cluster) Client(opts ...client.Option) *client.Client {
	return client.New(c.GateURL, opts...)
}

// ReplicaClient returns a fresh SDK client aimed straight at replica i,
// bypassing the gate.
func (c *Cluster) ReplicaClient(i int, opts ...client.Option) *client.Client {
	return client.New(c.Replicas[i].URL, opts...)
}

// TotalTrains sums every replica's training counter.
func (c *Cluster) TotalTrains() int64 {
	var sum int64
	for _, r := range c.Replicas {
		sum += r.Trains.Load()
	}
	return sum
}

// WaitState blocks until the gate sees replica i in the wanted state
// (or the deadline passes, failing the test).
func (c *Cluster) WaitState(t testing.TB, i int, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Gate.Tracker().State(i) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica %d never reached state %q (now %q)", i, want, c.Gate.Tracker().State(i))
}

// start boots the replica's registry and HTTP server on addr
// ("host:0" picks an ephemeral port; a concrete addr rebinds it).
func (r *Replica) start(addr string) error {
	reg, err := registry.New(r.Dir, 8, r.countingTrainer())
	if err != nil {
		return err
	}
	reg.SetFetcher(r.fetchFromPeers)
	scfg := registry.ServerConfig{
		MaxBatch: 8,
		Jobs:     registry.JobStoreConfig{Workers: 2, Queue: 32, TTL: time.Minute},
	}
	if r.cfg.serverMod != nil {
		r.cfg.serverMod(&scfg)
	}
	srv := registry.NewServer(reg, kernels.MustCompile().Vocab, scfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)

	r.mu.Lock()
	r.running = true
	if r.addr == "" {
		// First boot: pin the ephemeral address. Restarts rebind the
		// same one, so URL is written exactly once and is safe to read
		// without the lock forever after.
		r.addr = ln.Addr().String()
		r.URL = "http://" + r.addr
	}
	r.ln, r.srv, r.http = ln, srv, hs
	r.mu.Unlock()
	return nil
}

// countingTrainer wraps the configured trainer with the replica's
// persistent Trains counter and optional delay.
func (r *Replica) countingTrainer() registry.TrainFunc {
	return func(k registry.Key) (*core.Model, core.ModelMeta, error) {
		r.Trains.Add(1)
		if r.cfg.trainDelay > 0 {
			time.Sleep(r.cfg.trainDelay)
		}
		return r.cfg.trainer(k)
	}
}

// fetchFromPeers resolves a registry miss by asking every peer replica
// for the model's blob before falling back to training — the
// production -peers wiring, in-process.
func (r *Replica) fetchFromPeers(ctx context.Context, k registry.Key) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var peers []string
	for _, peer := range r.peers() {
		if peer != "" && peer != r.URL {
			peers = append(peers, peer)
		}
	}
	data, _, err := r.pool.FetchModelBlob(ctx, peers, k.ID())
	return data, err // nil, nil: no peer has it, train locally
}

// Kill crashes the replica: connections drop, in-flight requests fail,
// nothing is drained. The on-disk store and address remain for
// Restart. Killing a dead replica is a no-op.
func (r *Replica) Kill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.running {
		return
	}
	r.running = false
	r.http.Close()
	r.ln.Close()
	r.srv.Close()
}

// Restart reboots a killed replica on its original address, with a
// fresh registry over the surviving on-disk store (the cache and job
// store start empty, like a real process restart).
func (r *Replica) Restart() error {
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return errors.New("testutil: replica already running")
	}
	addr := r.addr
	r.mu.Unlock()
	return r.start(addr)
}

// TinyTrainer is the shared test trainer: a correctly-shaped untrained
// model for the key's machine and objective, built instantly (zero
// epochs) and deterministically.
func TinyTrainer(k registry.Key) (*core.Model, core.ModelMeta, error) {
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
