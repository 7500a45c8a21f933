package registry

import (
	"fmt"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
)

// Model refresh: the registry half of the measure→learn loop. Tune
// sessions with a measurement budget feed their real-execution samples
// into a per-key SampleLog; once enough accumulate, the serving layer
// retrains the key incrementally on the sample-refined dataset
// (Retrain), canaries the result against live traffic, and either
// Promotes it — the new version takes over serving and persists — or
// Demotes it, discarding the retrain while the prior version keeps
// serving. Every step lands in the key's version history, served by
// GET /v1/models/{id}.

// SampleLog returns the measurement feed for key, creating it on first
// use. Tune sessions append to it; refresh retrains snapshot and consume
// from it.
func (r *Registry) SampleLog(key Key) *dataset.SampleLog {
	id := key.ID()
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.samples[id]
	if !ok {
		l = &dataset.SampleLog{}
		r.samples[id] = l
	}
	return l
}

// recordEvent appends one event to a key's version history.
func (r *Registry) recordEvent(id string, ev api.VersionEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.history[id] = append(r.history[id], ev)
}

// History returns a copy of the key's version history, oldest first.
// Only events from this process's lifetime appear: a model restored from
// disk starts with the version its metadata carries and an empty history.
func (r *Registry) History(id string) []api.VersionEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]api.VersionEvent(nil), r.history[id]...)
}

// Retrain fine-tunes cur on the key's accumulated measurements: it
// snapshots the sample log, derives a dataset whose measured cells are
// the sample means, and continues training the current model's weights
// on the derived fold for epochs epochs (0 = the model's own epoch
// count). The returned entry carries the incremented version and the
// consumed sample count; cur is never mutated — the clone trains, so the
// current version keeps serving concurrently. The snapshot-consume pair
// is not atomic against concurrent appends, which is fine: late samples
// count toward the next refresh.
func (r *Registry) Retrain(key Key, cur *Entry, epochs int) (*Entry, error) {
	log := r.SampleLog(key)
	snap := log.Snapshot()
	if len(snap) == 0 {
		return nil, fmt.Errorf("registry: refresh %s: no measured samples", key)
	}
	derived, fold, targets, err := trainingSet(key, snap)
	if err != nil {
		return nil, fmt.Errorf("registry: refresh %s: %w", key, err)
	}

	start := time.Now()
	// Clone through the serialized form: same weights, same config, and
	// by construction exactly what a restart would load.
	blob, err := cur.Model.Marshal(cur.Meta)
	if err != nil {
		return nil, fmt.Errorf("registry: refresh %s: %w", key, err)
	}
	clone, meta, err := core.UnmarshalModel(blob)
	if err != nil {
		return nil, fmt.Errorf("registry: refresh %s: %w", key, err)
	}
	if epochs > 0 {
		clone.Cfg.Epochs = epochs
	}
	clone.Fit(core.Samples(derived, fold.Train, targets, clone.Cfg))
	r.observe("retrain", time.Since(start))

	consumed := log.MarkTrained()
	meta.Normalize()
	meta.Version++
	meta.Samples += consumed
	r.recordEvent(key.ID(), api.VersionEvent{
		Version: meta.Version, Event: api.EventTrained, Samples: consumed, At: time.Now(),
	})
	return &Entry{Key: key, Model: clone, Meta: meta}, nil
}

// Promote installs e as the key's serving entry: it replaces the cached
// entry, persists to the store (best-effort, like post-training
// persists), and records the promotion.
func (r *Registry) Promote(e *Entry) {
	id := e.Key.ID()
	r.mu.Lock()
	r.stats.Evicted += int64(len(r.cache.put(id, e)))
	dir := r.dir
	r.mu.Unlock()
	if dir != "" {
		if err := e.Model.Save(r.path(e.Key), e.Meta); err != nil {
			r.mu.Lock()
			r.stats.PersistFailures++
			r.mu.Unlock()
		}
	}
	r.recordEvent(id, api.VersionEvent{Version: e.Meta.Version, Event: api.EventPromoted, At: time.Now()})
}

// Demote records that e lost its canary; the entry is discarded and the
// prior version keeps serving.
func (r *Registry) Demote(e *Entry) {
	r.recordEvent(e.Key.ID(), api.VersionEvent{Version: e.Meta.Version, Event: api.EventDemoted, At: time.Now()})
}

// Describe assembles the model-detail view for id: the listing info plus
// the measurement feed counters and version history. ok is false when
// the registry knows no model under id.
func (r *Registry) Describe(id string) (api.ModelDetail, bool) {
	for _, info := range r.List() {
		if info.ID != id {
			continue
		}
		det := api.ModelDetail{
			Key: api.ModelKey{
				Machine:   info.Key.Machine,
				Scenario:  info.Key.Scenario,
				Objective: info.Key.Objective,
			},
			ID:      id,
			Version: info.Meta.Version,
			Cached:  info.Cached,
			OnDisk:  info.OnDisk,
			Samples: info.Meta.Samples,
			History: r.History(id),
		}
		if det.Version < 1 {
			det.Version = 1 // pre-versioning metadata on disk
		}
		r.mu.Lock()
		if l, ok := r.samples[id]; ok {
			r.mu.Unlock()
			det.PendingSamples = l.SinceTrain()
			if per := l.PerRegion(); len(per) > 0 {
				det.SampleRegions = per
			}
		} else {
			r.mu.Unlock()
		}
		return det, true
	}
	return api.ModelDetail{}, false
}
