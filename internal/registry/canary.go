package registry

import (
	"strconv"
	"sync"
	"time"

	"pnptuner/internal/autotune"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/programl"
	"pnptuner/internal/space"
)

// Canary refresh: the serving half of the measure→learn loop. Tune
// sessions with a measurement budget feed real-execution samples into
// the registry's per-key SampleLog (recordMeasured); once a key
// accumulates RefreshConfig.Threshold of them, a background goroutine
// retrains the model incrementally on the sample-refined dataset and
// starts a shadow rollout: the current version keeps serving every
// request while the refreshed version re-answers the same live predict
// traffic, both scored against the corpus ground truth. After
// CanaryWindow scoreable predicts the verdict is final — the refreshed
// version is promoted (takes over serving and persists, version
// incremented) on a win or tie, demoted (discarded) on a loss. The
// serving version is never interrupted either way.

// RefreshConfig tunes the loop. The zero value disables it.
type RefreshConfig struct {
	// Threshold is the measured-sample count per model key that triggers
	// a background refresh retrain; 0 disables refresh entirely.
	Threshold int
	// CanaryWindow is how many scoreable live predicts the refreshed
	// model shadows before the promote/demote verdict (default 16).
	CanaryWindow int
	// Epochs is the fine-tune epoch count of one refresh retrain
	// (default 4; the full recipe's epoch count would retrain from how
	// the model already predicts, so a short burst suffices).
	Epochs int
}

// canary is one in-flight shadow rollout. Scoring runs off the request
// path: handlePredict enqueues onto the bounded scores queue and returns
// to the client immediately; the canary's worker goroutine drains the
// queue through scoreCanary. A full queue drops the sample (the window
// just takes a little longer to fill) — live predict latency never pays
// for a shadow forward pass.
type canary struct {
	key   Key
	entry *Entry   // the refreshed (vN+1) entry under evaluation
	b     *Batcher // its own batcher; the serving batcher is untouched

	scores  chan canarySample
	stopped chan struct{}
	stop    sync.Once

	mu        sync.Mutex
	scored    int
	curSum    float64 // serving version's summed prediction quality
	shadowSum float64 // refreshed version's
	decided   bool
}

// canarySample is one live predict captured for off-path shadow scoring.
// tid is the originating request's trace ID, so the shadow score lands
// as a span on the trace of the predict it shadowed.
type canarySample struct {
	g        *programl.Graph
	extras   []float64
	curPicks []int
	tid      string
}

// enqueue hands one live predict to the scoring worker without blocking:
// a full queue or a decided canary drops the sample.
func (c *canary) enqueue(s canarySample) bool {
	select {
	case <-c.stopped:
		return false
	default:
	}
	select {
	case c.scores <- s:
		return true
	default:
		return false
	}
}

// halt ends the scoring worker. Safe to call more than once.
func (c *canary) halt() { c.stop.Do(func() { close(c.stopped) }) }

// recordMeasured feeds one tune session's real-execution samples into
// the key's measurement log and kicks the refresh check. Partial streams
// from cancelled sessions land here too — a real run is a real run.
func (s *Server) recordMeasured(key Key, samples []dataset.MeasuredSample) {
	if len(samples) == 0 {
		return
	}
	s.reg.SampleLog(key).Append(samples...)
	s.maybeRefresh(key)
}

// maybeRefresh starts a background retrain for key when the sample
// threshold is met and no retrain or canary is already in flight.
func (s *Server) maybeRefresh(key Key) {
	if s.refresh.Threshold <= 0 {
		return
	}
	if s.reg.SampleLog(key).SinceTrain() < s.refresh.Threshold {
		return
	}
	id := key.ID()
	s.mu.Lock()
	if s.closed || s.refreshing[id] || s.canaries[id] != nil {
		s.mu.Unlock()
		return
	}
	s.refreshing[id] = true
	s.mu.Unlock()
	go s.refreshModel(key)
}

// refreshModel retrains key on its accumulated samples and hands the
// result to a canary. Runs on its own goroutine; the refreshing flag
// clears only after the canary is installed (or the retrain failed), so
// at most one refresh per key is ever in flight.
func (s *Server) refreshModel(key Key) {
	id := key.ID()
	defer func() {
		s.mu.Lock()
		delete(s.refreshing, id)
		s.mu.Unlock()
	}()
	cur, err := s.reg.Get(key)
	if err != nil {
		return
	}
	next, err := s.reg.Retrain(key, cur, s.refresh.Epochs)
	if err != nil {
		return
	}
	s.startCanary(key, next)
}

// startCanary publishes a shadow rollout for key serving entry next and
// starts its scoring worker. The shadow batcher is built the same way
// serving batchers are, on its own float32 snapshot.
func (s *Server) startCanary(key Key, next *Entry) {
	b, err := s.newServingBatcher(next)
	if err != nil {
		return
	}
	id := key.ID()
	c := &canary{
		key: key, entry: next, b: b,
		// A few windows of headroom: scoring lags live traffic slightly,
		// and anything past that is droppable — the verdict only needs
		// CanaryWindow scoreable samples eventually, not every request.
		scores:  make(chan canarySample, 64),
		stopped: make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed || s.canaries[id] != nil {
		s.mu.Unlock()
		b.Close()
		return
	}
	s.canaries[id] = c
	s.mu.Unlock()
	go s.canaryWorker(c)
}

// canaryWorker drains one canary's score queue until the verdict (or
// shutdown) halts it.
func (s *Server) canaryWorker(c *canary) {
	for {
		select {
		case sample := <-c.scores:
			s.scoreCanary(c, sample)
		case <-c.stopped:
			return
		}
	}
}

// scoreCanary runs one live predict's graph through the shadow model and
// scores both versions against the corpus ground truth. Requests for
// regions outside the corpus can't be judged and don't count toward the
// window. sample.curPicks is what the serving version answered the
// client.
func (s *Server) scoreCanary(c *canary, sample canarySample) {
	key, g := c.key, sample.g
	rd, sp := s.groundTruth(key, g.RegionID)
	if rd == nil {
		return
	}
	start := time.Now()
	shadowPicks, err := c.b.Predict(Request{Graph: g, Extras: sample.extras})
	if err != nil {
		// A shadow that can't answer live traffic loses outright.
		s.finishCanary(c, false)
		return
	}
	cur := predictQuality(rd, sp, key.Objective, sample.curPicks)
	shadow := predictQuality(rd, sp, key.Objective, shadowPicks)
	s.tele.canaryScored.Inc()
	s.tele.rec.Add(sample.tid, "canary.score", start, time.Since(start),
		"shadow_version", strconv.Itoa(c.entry.Meta.Version))

	c.mu.Lock()
	if c.decided {
		c.mu.Unlock()
		return
	}
	c.scored++
	c.curSum += cur
	c.shadowSum += shadow
	decide := c.scored >= s.refresh.CanaryWindow
	if decide {
		c.decided = true
	}
	win := c.shadowSum >= c.curSum
	c.mu.Unlock()
	if decide {
		s.finishCanary(c, win)
	}
}

// groundTruth resolves the exhaustive-sweep region the canary scores
// against (nil when the region isn't in the corpus).
func (s *Server) groundTruth(key Key, regionID string) (*dataset.RegionData, *space.Space) {
	m, err := hw.ByName(key.Machine)
	if err != nil {
		return nil, nil
	}
	d, err := dataset.Build(m)
	if err != nil {
		return nil, nil
	}
	return d.Region(regionID), d.Space
}

// predictQuality scores one version's picks for a region: the mean
// oracle fraction over the objective's targets (1 = every head picked
// the optimum).
func predictQuality(rd *dataset.RegionData, sp *space.Space, objective string, picks []int) float64 {
	targets, err := core.ObjectiveTargets(sp, objective)
	if err != nil {
		return 0
	}
	sum := 0.0
	for _, t := range targets {
		_, best := autotune.Oracle(rd, sp, t.Obj)
		sum += best / t.Obj.Value(rd, sp, picks[t.Head])
	}
	return sum / float64(len(targets))
}

// finishCanary resolves a shadow rollout: on promote the refreshed entry
// replaces the registry's serving entry and its batcher swaps in under
// the server lock (in-place, so concurrent predicts never miss); on
// demote the refreshed version is discarded. Either way the rollout is
// removed and its loser's batcher drains off-request.
func (s *Server) finishCanary(c *canary, promote bool) {
	c.halt()
	id := c.key.ID()
	s.mu.Lock()
	if s.canaries[id] != c {
		s.mu.Unlock()
		return
	}
	delete(s.canaries, id)
	if !promote {
		s.mu.Unlock()
		s.tele.canaryVerdicts.With("demote").Inc()
		s.reg.Demote(c.entry)
		go c.b.Close()
		return
	}
	var old *Batcher
	if v, ok := s.batchers.get(id); ok {
		old = v.(*Batcher)
		// put on an existing key replaces in place and evicts nothing,
		// so the displaced batcher must be closed explicitly.
		s.batchers.put(id, c.b)
	}
	s.mu.Unlock()
	s.tele.canaryVerdicts.With("promote").Inc()
	s.tele.promotions.Inc()
	s.reg.Promote(c.entry)
	if old != nil {
		go old.Close()
	} else {
		// The serving batcher was evicted mid-canary: don't force the
		// slot back; the promoted entry rebuilds on next use.
		go c.b.Close()
	}
}

// canaryVersion reports the shadow version in flight for id (0 = none).
func (s *Server) canaryVersion(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.canaries[id]; ok {
		return c.entry.Meta.Version
	}
	return 0
}
