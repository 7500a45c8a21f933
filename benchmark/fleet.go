package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/gate"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/registry"
)

// Fleet shape: what `pnpserve` ×3 + `pnpgate` boot with when every flag
// is left at its default, plus the four resident model keys.
const (
	numReplicas = 3
	cacheSize   = 8
	serveEpochs = 4 // training epochs of the served models
)

var (
	machines   = []string{"haswell", "skylake"}
	objectives = []string{registry.ObjectiveTime, registry.ObjectiveEDP}
)

// fleetKeys returns the resident model keys: machines × objectives on
// the full-corpus scenario.
func fleetKeys() []registry.Key {
	var keys []registry.Key
	for _, m := range machines {
		for _, o := range objectives {
			keys = append(keys, registry.Key{Machine: m, Scenario: registry.ScenarioFull, Objective: o})
		}
	}
	return keys
}

// replica is one in-process pnpserve behind its own loopback listener.
type replica struct {
	reg  *registry.Registry
	srv  *registry.Server
	http *http.Server
	url  string
}

// fleet is the system under test: three replicas and a gate built from
// the constructors cmd/pnpserve and cmd/pnpgate call, each serving on
// its own listener, all inside this process so one getrusage covers
// the generator and the fleet together.
type fleet struct {
	corpus   *kernels.Corpus
	datasets map[string]*dataset.Dataset // by machine name
	keys     []registry.Key
	blobs    map[registry.Key][]byte // the served models, as stored
	replicas []*replica
	gate     *gate.Gate
	gateHTTP *http.Server
	gateURL  string
	dir      string // scratch root holding the replica stores
	// conn is the generator's only HTTP client: at most `clients`
	// connections per host, shared by every SDK client the workload
	// makes.
	conn *http.Client
}

// setupOffline does the part of set-up every workload needs, the
// offline one included: compile the corpus and build both machines'
// exhaustive datasets.
func setupOffline(rec *recorder) (*fleet, error) {
	f := &fleet{datasets: map[string]*dataset.Dataset{}}
	id := rec.begin("setup.kernels.compile", 0, 0)
	corpus, err := kernels.Compile()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	corpus.Vocab.Freeze()
	f.corpus = corpus
	for _, name := range machines {
		m, err := hw.ByName(name)
		if err != nil {
			return nil, err
		}
		id := rec.begin("setup.dataset.build", 0, 0)
		d, err := dataset.Build(m)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		f.datasets[name] = d
	}
	return f, nil
}

// setupFleet finishes set-up for the serving workloads: train the four
// models at serveEpochs through replica 0's registry, replicate the
// stored blobs into every other replica's store, boot the servers and
// the gate, and warm every key on every replica so the measured phase
// starts with models resident and batchers running. refresh is the
// replicas' measure→learn configuration (zero value: off).
//
// Nothing in here sleeps, polls or retries: a listener accepts as soon
// as net.Listen returns, and every warm-up op is one blocking call.
func setupFleet(f *fleet, rec *recorder, scratch string, refresh registry.RefreshConfig) error {
	dir, err := os.MkdirTemp(scratch, "fleet-")
	if err != nil {
		return err
	}
	f.dir = dir
	f.keys = fleetKeys()
	f.blobs = map[registry.Key][]byte{}

	cfg := core.DefaultModelConfig()
	cfg.Epochs = serveEpochs
	for i := 0; i < numReplicas; i++ {
		reg, err := registry.New(filepath.Join(dir, fmt.Sprintf("replica%d", i)), cacheSize, registry.DefaultTrainer(cfg))
		if err != nil {
			return err
		}
		f.replicas = append(f.replicas, &replica{reg: reg})
	}

	id := rec.begin("setup.train", 0, 0)
	for _, k := range f.keys {
		if _, err := f.replicas[0].reg.Get(k); err != nil {
			return err
		}
	}
	rec.end(id)

	id = rec.begin("setup.store", 0, 0)
	for _, k := range f.keys {
		blob, err := f.replicas[0].reg.ExportBlob(k.ID())
		if err != nil {
			return err
		}
		f.blobs[k] = blob
		for _, r := range f.replicas[1:] {
			if _, err := r.reg.ImportBlob(blob, k.ID()); err != nil {
				return err
			}
		}
	}
	rec.end(id)

	id = rec.begin("setup.boot", 0, 0)
	var urls []string
	for _, r := range f.replicas {
		r.srv = registry.NewServer(r.reg, f.corpus.Vocab, registry.ServerConfig{Refresh: refresh})
		r.http, r.url, err = serve(r.srv.Handler())
		if err != nil {
			return err
		}
		urls = append(urls, r.url)
	}
	f.gate, err = gate.New(gate.Config{Replicas: urls})
	if err != nil {
		return err
	}
	f.gateHTTP, f.gateURL, err = serve(f.gate.Handler())
	if err != nil {
		return err
	}
	f.conn = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
	}}
	rec.end(id)

	id = rec.begin("setup.warmup", 0, 0)
	defer rec.end(id)
	g := f.corpus.Regions[0].Graph
	body, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	targets := append([]string{f.gateURL}, urls...)
	for _, k := range f.keys {
		req := predictRequest(k, body)
		for _, u := range targets {
			if _, err := f.client(u).Predict(context.Background(), req); err != nil {
				return fmt.Errorf("warm-up %s via %s: %w", k, u, err)
			}
		}
	}
	return nil
}

// client returns an SDK client for base on the fleet's bounded
// connection pool. Retries are off: a failed op is a failed op.
func (f *fleet) client(base string) *client.Client {
	return client.New(base, client.WithHTTPClient(f.conn), client.WithRetries(0, time.Millisecond))
}

// owner returns the replica the gate's ring places k on.
func (f *fleet) owner(k registry.Key) *replica {
	order := f.gate.Ring().Lookup(gate.RouteKey(k.Machine, k.Scenario, k.Objective))
	return f.replicas[order[0]]
}

// serve starts h on a fresh loopback listener with the timeouts the
// cmd/ mains set and returns the server and its base URL.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln) // returns when close() closes the server
	return srv, "http://" + ln.Addr().String(), nil
}

// close stops the fleet the way the mains do on SIGTERM — listeners
// first, then jobs and batchers — and removes the stores. Safe on a
// partly built fleet.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.gateHTTP != nil {
		f.gateHTTP.Shutdown(ctx)
	}
	if f.gate != nil {
		f.gate.Close()
	}
	for _, r := range f.replicas {
		if r.http != nil {
			r.http.Shutdown(ctx)
		}
		if r.srv != nil {
			r.srv.Shutdown(ctx)
		}
	}
	if f.conn != nil {
		f.conn.CloseIdleConnections()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
