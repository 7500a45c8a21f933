// Package registry turns trained PnP models into reusable, servable
// artifacts: a content-addressed on-disk store keyed by (machine,
// scenario, objective), fronted by an LRU in-memory cache and a
// single-flight training path so concurrent requests for a missing model
// train it exactly once. It also provides the micro-batching inference
// queue and the HTTP serving layer behind cmd/pnpserve — the whole
// train-once/predict-many half of the system.
package registry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/space"
)

// Objectives a registry key may carry (scenario 1 and scenario 2 of the
// paper): the names in core.TrainedObjectives.
const (
	ObjectiveTime = "time"
	ObjectiveEDP  = "edp"
)

// ScenarioFull is the production training split: all corpus regions, no
// holdout. LOOCV scenarios are spelled "loocv:<App>".
const ScenarioFull = "full"

// ErrModelNotFound marks a resolve miss that cannot self-heal: the model
// is neither cached nor on disk and no trainer is configured. The HTTP
// layer maps it to api.CodeModelNotFound.
var ErrModelNotFound = errors.New("model not found")

// Key identifies one servable model.
type Key struct {
	Machine   string // hw machine name: "haswell" or "skylake"
	Scenario  string // "full" or "loocv:<App>"
	Objective string // ObjectiveTime or ObjectiveEDP
}

// String renders the key for logs and listings.
func (k Key) String() string {
	return k.Machine + "/" + k.Objective + "/" + k.Scenario
}

// ID returns the content address of the key: a SHA-256 over its canonical
// string, hex-truncated. Store filenames and batcher identities hang off
// this, so renaming display formats never orphans stored models.
func (k Key) ID() string {
	sum := sha256.Sum256([]byte(k.Machine + "\x00" + k.Scenario + "\x00" + k.Objective))
	return hex.EncodeToString(sum[:12])
}

// Validate rejects malformed keys before they reach training, so callers
// can treat a Validate failure as client error and everything after it as
// server-side.
func (k Key) Validate() error {
	if _, err := hw.ByName(k.Machine); err != nil {
		return err
	}
	if !slices.Contains(core.TrainedObjectives, k.Objective) {
		return fmt.Errorf("registry: unknown objective %q", k.Objective)
	}
	if app, ok := strings.CutPrefix(k.Scenario, "loocv:"); ok {
		for _, name := range kernels.AppNames() {
			if name == app {
				return nil
			}
		}
		return fmt.Errorf("registry: unknown application %q in scenario", app)
	}
	if k.Scenario != ScenarioFull {
		return fmt.Errorf("registry: unknown scenario %q", k.Scenario)
	}
	return nil
}

// Space returns the key's machine search space (the thing predictions
// index into).
func (k Key) Space() (*space.Space, error) {
	m, err := hw.ByName(k.Machine)
	if err != nil {
		return nil, err
	}
	return space.New(m), nil
}

// Entry is a resolved model: the network plus the metadata pinning it to
// its machine and search space.
type Entry struct {
	Key   Key
	Model *core.Model
	Meta  core.ModelMeta
}

// TrainFunc produces a model for a key on a registry miss.
type TrainFunc func(Key) (*core.Model, core.ModelMeta, error)

// Stats counts registry traffic.
type Stats struct {
	Hits            int64 // served from the LRU cache
	DiskLoads       int64 // deserialized from the store
	Trained         int64 // trained on miss
	Fetched         int64 // pulled from a peer replica on miss
	Imported        int64 // installed via the blob import endpoint or a fetch
	Evicted         int64 // dropped from the LRU cache
	PersistFailures int64 // trained models the store failed to persist
}

// Registry is the model store. All methods are safe for concurrent use.
type Registry struct {
	dir   string // on-disk store; "" keeps models in memory only
	train TrainFunc

	mu       sync.Mutex
	fetch    FetchFunc // peer-fetch hook, consulted between disk and training
	observer func(kind string, d time.Duration)
	capacity int
	cache    *lruCache // Key.ID() → *Entry
	inflight map[string]*flight
	stats    Stats
	// metaCache spares List from re-reading and re-digesting unchanged
	// store files; keyed by path, invalidated by (mtime, size).
	metaCache map[string]cachedMeta
	// history and samples drive the measure→learn loop (refresh.go):
	// per-key version events and the measured-execution feed retrains
	// consume. Both keyed by Key.ID().
	history map[string][]api.VersionEvent
	samples map[string]*dataset.SampleLog
}

// cachedMeta is one List metadata read, pinned to the file it came from.
type cachedMeta struct {
	modTime time.Time
	size    int64
	meta    core.ModelMeta
}

// flight is one in-progress resolve; waiters block on done.
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
}

// New builds a registry over dir (created if missing; "" disables the
// on-disk store) holding at most capacity models in memory. train runs on
// a full miss; it may be nil, in which case misses fail.
func New(dir string, capacity int, train TrainFunc) (*Registry, error) {
	if capacity < 1 {
		capacity = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: create store dir: %w", err)
		}
	}
	return &Registry{
		dir:       dir,
		train:     train,
		capacity:  capacity,
		cache:     newLRU(capacity),
		inflight:  map[string]*flight{},
		metaCache: map[string]cachedMeta{},
		history:   map[string][]api.VersionEvent{},
		samples:   map[string]*dataset.SampleLog{},
	}, nil
}

// path returns the content-addressed store file for a key.
func (r *Registry) path(key Key) string {
	return filepath.Join(r.dir, key.ID()+".pnpm")
}

// SetObserver installs the training-duration hook: it is called with
// kind "train" after every on-miss training and "retrain" after every
// refresh retrain, with the wall time spent. The serving layer wires
// it to the pnp_model_train_seconds telemetry family. Call before
// serving traffic; nil disables.
func (r *Registry) SetObserver(fn func(kind string, d time.Duration)) {
	r.mu.Lock()
	r.observer = fn
	r.mu.Unlock()
}

// observe reports one training duration to the observer, if any.
func (r *Registry) observe(kind string, d time.Duration) {
	r.mu.Lock()
	fn := r.observer
	r.mu.Unlock()
	if fn != nil {
		fn(kind, d)
	}
}

// Get resolves key: LRU cache, then the on-disk store, then training.
// Concurrent calls for the same missing key share one resolve — the model
// trains exactly once and every caller gets the same *Entry.
func (r *Registry) Get(key Key) (*Entry, error) {
	return r.GetContext(context.Background(), key)
}

// GetContext is Get carrying the resolving request's context *values*
// (most importantly its trace ID, which a peer fetch forwards so one
// trace spans gate → replica → peer). Cancellation deliberately does
// not propagate: the resolve is single-flight and its result is shared
// by every waiter, so the first caller hanging up must not abort work
// other callers are waiting on.
func (r *Registry) GetContext(ctx context.Context, key Key) (*Entry, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	id := key.ID()

	r.mu.Lock()
	if v, ok := r.cache.get(id); ok {
		r.stats.Hits++
		r.mu.Unlock()
		return v.(*Entry), nil
	}
	if fl, ok := r.inflight[id]; ok {
		r.mu.Unlock()
		<-fl.done
		return fl.e, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	r.inflight[id] = fl
	r.mu.Unlock()

	// A panicking trainer must not wedge the flight — waiters block on
	// fl.done forever and every later Get joins the dead flight — so the
	// panic becomes this Get's error and cleanup always runs.
	e, origin, err := r.safeResolve(ctx, key)

	r.mu.Lock()
	if err == nil {
		r.stats.Evicted += int64(len(r.cache.put(id, e)))
		switch origin {
		case originDisk:
			r.stats.DiskLoads++
		case originFetched:
			r.stats.Fetched++
			r.stats.Imported++
		default:
			r.stats.Trained++
			// The version history starts here; restored models carry
			// their version in metadata but no in-process events.
			r.history[id] = append(r.history[id], api.VersionEvent{
				Version: e.Meta.Version, Event: api.EventTrained, At: time.Now(),
			})
		}
	}
	delete(r.inflight, id)
	r.mu.Unlock()

	fl.e, fl.err = e, err
	close(fl.done)
	return e, err
}

// Where a resolve found its model; Get turns this into stats.
const (
	originTrained = iota
	originDisk
	originFetched
)

// safeResolve converts a resolve panic into an error.
func (r *Registry) safeResolve(ctx context.Context, key Key) (e *Entry, origin int, err error) {
	defer func() {
		if p := recover(); p != nil {
			e, origin, err = nil, 0, fmt.Errorf("registry: resolving %s panicked: %v", key, p)
		}
	}()
	return r.resolve(ctx, key)
}

// resolve loads key from disk, fetches it from a peer, or trains it.
// Runs without the lock — this is the slow path single-flight protects.
func (r *Registry) resolve(ctx context.Context, key Key) (e *Entry, origin int, err error) {
	if r.dir != "" {
		path := r.path(key)
		if _, statErr := os.Stat(path); statErr == nil {
			m, meta, loadErr := core.LoadModel(path)
			if loadErr != nil {
				return nil, 0, fmt.Errorf("registry: stored model %s unusable: %w", key, loadErr)
			}
			if meta.Machine != key.Machine || meta.Objective != key.Objective || meta.Scenario != key.Scenario {
				return nil, 0, fmt.Errorf("registry: stored model %s is for %s/%s/%s (store corrupted?)",
					key, meta.Machine, meta.Objective, meta.Scenario)
			}
			if err := checkMetaCurrent(key, meta); err != nil {
				return nil, 0, fmt.Errorf("registry: stored model %s is stale: %w", key, err)
			}
			meta.Normalize()
			return &Entry{Key: key, Model: m, Meta: meta}, originDisk, nil
		}
	}

	// Before paying for training, ask the fleet: a peer that already
	// trained this key hands over its blob, validated exactly like a
	// disk load. Fetch failures and bad blobs fall through to training —
	// a confused peer must not take this replica down with it.
	r.mu.Lock()
	fetch := r.fetch
	r.mu.Unlock()
	if fetch != nil {
		// Values only (trace ID), no cancellation — see GetContext.
		if data, ferr := fetch(context.WithoutCancel(ctx), key); ferr == nil && len(data) > 0 {
			if e, berr := r.entryFromBlob(data); berr == nil && e.Key == key {
				r.persistBlob(key, data)
				return e, originFetched, nil
			}
		}
	}

	if r.train == nil {
		return nil, 0, fmt.Errorf("registry: model %s not in store and no trainer configured: %w", key, ErrModelNotFound)
	}
	start := time.Now()
	m, meta, err := r.train(key)
	if err != nil {
		return nil, 0, fmt.Errorf("registry: train %s: %w", key, err)
	}
	r.observe("train", time.Since(start))
	meta.Normalize()
	if r.dir != "" {
		if err := m.Save(r.path(key), meta); err != nil {
			// A full or read-only store must not turn minutes of
			// successful training into a serving failure that repeats on
			// every request: serve the model in-memory and count the
			// persist failure for /healthz to surface.
			r.mu.Lock()
			r.stats.PersistFailures++
			r.mu.Unlock()
		}
	}
	return &Entry{Key: key, Model: m, Meta: meta}, originTrained, nil
}

// checkMetaCurrent rejects a stored model whose search space or
// vocabulary no longer matches this binary: predictions are config
// *indices*, so serving a model trained over a different Table I grid
// would silently recommend the wrong configurations. Cheap — it builds
// the space and compiles the (process-cached) corpus, not the dataset.
func checkMetaCurrent(key Key, meta core.ModelMeta) error {
	m, err := hw.ByName(key.Machine)
	if err != nil {
		return err
	}
	corpus, err := kernels.Compile()
	if err != nil {
		return err
	}
	return meta.CheckSpace(space.New(m), corpus.Vocab.Size())
}

// Capacity returns the LRU cache bound.
func (r *Registry) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.capacity
}

// Stats returns a snapshot of registry traffic counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Info describes one known model for listings.
type Info struct {
	Key    Key            `json:"key"`
	ID     string         `json:"id"`
	Cached bool           `json:"cached"`
	OnDisk bool           `json:"on_disk"`
	Meta   core.ModelMeta `json:"meta"`
}

// List enumerates every model the registry knows: in-memory entries plus
// on-disk store files, sorted by key string.
func (r *Registry) List() []Info {
	byID := map[string]*Info{}
	r.mu.Lock()
	for _, v := range r.cache.all() {
		e := v.(*Entry)
		byID[e.Key.ID()] = &Info{Key: e.Key, ID: e.Key.ID(), Cached: true, Meta: e.Meta}
	}
	dir := r.dir
	r.mu.Unlock()

	if dir != "" {
		matches, _ := filepath.Glob(filepath.Join(dir, "*.pnpm"))
		for _, path := range matches {
			meta, err := r.storedMeta(path)
			if err != nil {
				continue // unreadable blobs don't belong in listings
			}
			key := Key{Machine: meta.Machine, Scenario: meta.Scenario, Objective: meta.Objective}
			if info, ok := byID[key.ID()]; ok {
				info.OnDisk = true
				continue
			}
			byID[key.ID()] = &Info{Key: key, ID: key.ID(), OnDisk: true, Meta: meta}
		}
	}

	out := make([]Info, 0, len(byID))
	for _, info := range byID {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// storedMeta reads a store file's metadata through a (path, mtime, size)
// cache, so repeated /models listings don't re-read and re-digest every
// multi-megabyte weight blob.
func (r *Registry) storedMeta(path string) (core.ModelMeta, error) {
	st, err := os.Stat(path)
	if err != nil {
		return core.ModelMeta{}, err
	}
	r.mu.Lock()
	if c, ok := r.metaCache[path]; ok && c.modTime.Equal(st.ModTime()) && c.size == st.Size() {
		r.mu.Unlock()
		return c.meta, nil
	}
	r.mu.Unlock()

	meta, err := core.ReadModelMeta(path)
	if err != nil {
		return core.ModelMeta{}, err
	}
	r.mu.Lock()
	r.metaCache[path] = cachedMeta{modTime: st.ModTime(), size: st.Size(), meta: meta}
	r.mu.Unlock()
	return meta, nil
}

// DefaultTrainer returns the TrainFunc cmd/pnpserve and cmd/pnptune use:
// build the machine's exhaustive dataset, pick the key's fold, and run
// the paper's training recipe under cfg.
func DefaultTrainer(cfg core.ModelConfig) TrainFunc {
	return func(k Key) (*core.Model, core.ModelMeta, error) {
		d, fold, targets, err := trainingSet(k, nil)
		if err != nil {
			return nil, core.ModelMeta{}, err
		}
		model, _, err := core.Train(d, fold.Train, targets, cfg, nil)
		return model, core.MetaFor(d, k.Scenario, k.Objective), err
	}
}

// trainingSet resolves what key k trains on: the machine's exhaustive
// dataset with the measured samples' cell means in place of the
// simulated ones, the key's fold (every region for "full", the
// leave-one-out split for "loocv:<App>") and its objective's targets.
// Training and refresh share it.
func trainingSet(k Key, samples []dataset.MeasuredSample) (*dataset.Dataset, dataset.Fold, []core.Target, error) {
	m, err := hw.ByName(k.Machine)
	if err != nil {
		return nil, dataset.Fold{}, nil, err
	}
	d, err := dataset.Build(m)
	if err != nil {
		return nil, dataset.Fold{}, nil, err
	}
	d = d.WithSamples(samples)
	fold := d.FullFold()
	if app, ok := strings.CutPrefix(k.Scenario, "loocv:"); ok {
		if fold, ok = d.FoldByApp(app); !ok {
			return nil, fold, nil, fmt.Errorf("registry: unknown application %q", app)
		}
	}
	targets, err := core.ObjectiveTargets(d.Space, k.Objective)
	return d, fold, targets, err
}
