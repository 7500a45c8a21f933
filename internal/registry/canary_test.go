package registry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/autotune"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/measure"
	"pnptuner/internal/space"
)

// fullShapeModel builds an untrained model whose heads span the real
// config space — unlike tinyModel's truncated 16-class heads, it can be
// refresh-retrained against genuine dataset targets.
func fullShapeModel(k Key) (*core.Model, core.ModelMeta) {
	cfg := core.DefaultModelConfig()
	cfg.EmbedDim, cfg.Hidden = 6, 6
	return untrainedModel(k, cfg)
}

// untrainedModel builds an untrained model of cfg's widths whose heads
// span the real config space.
func untrainedModel(k Key, cfg core.ModelConfig) (*core.Model, core.ModelMeta) {
	c := kernels.MustCompile()
	mach, err := hw.ByName(k.Machine)
	if err != nil {
		panic(err)
	}
	sp := space.New(mach)
	cfg.Epochs = 0
	nHeads, classes := len(sp.Caps()), sp.NumConfigs()
	if k.Objective == ObjectiveEDP {
		nHeads, classes = 1, sp.NumJoint()
	}
	m := core.NewModel(cfg, c.Vocab.Size(), nHeads, classes)
	meta := core.ModelMeta{
		Machine: k.Machine, Scenario: k.Scenario, Objective: k.Objective,
		Caps:       append([]float64(nil), sp.Caps()...),
		NumConfigs: sp.NumConfigs(), NumJoint: sp.NumJoint(),
		VocabSize: c.Vocab.Size(),
	}
	return m, meta
}

// newRefreshServer wires a server with the measure→learn loop enabled.
func newRefreshServer(t *testing.T, refresh RefreshConfig) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := New("", 4, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := fullShapeModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := kernels.MustCompile()
	srv := NewServer(reg, c.Vocab, ServerConfig{
		MaxBatch: 8, Refresh: refresh,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// realSamples takes n real executions of corpus region 0 on the measure
// runner — the same path a measured tune session feeds the registry.
func realSamples(t testing.TB, machine string, seed uint64, n int) []dataset.MeasuredSample {
	t.Helper()
	m, err := hw.ByName(machine)
	if err != nil {
		t.Fatal(err)
	}
	c := kernels.MustCompile()
	sp := space.New(m)
	runner := measure.NewRunner(m, c.Regions[0], sp, seed, -1)
	ev := runner.Evaluator(autotune.TimeUnderCap{Cap: 0})
	for i := 0; i < n; i++ {
		ev.Measure(i % sp.NumConfigs())
	}
	return runner.DatasetSamples()
}

// cloneBumped clones an entry through its serialized form (exactly what
// Retrain does) and bumps the version, yielding a shadow candidate whose
// predictions tie the original bit-for-bit.
func cloneBumped(t *testing.T, e *Entry) *Entry {
	t.Helper()
	blob, err := e.Model.Marshal(e.Meta)
	if err != nil {
		t.Fatal(err)
	}
	m, meta, err := core.UnmarshalModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	meta.Normalize()
	meta.Version = e.Meta.Version + 1
	return &Entry{Key: e.Key, Model: m, Meta: meta}
}

func countEvents(history []api.VersionEvent, event string) int {
	n := 0
	for _, ev := range history {
		if ev.Event == event {
			n++
		}
	}
	return n
}

// TestRetrainIncrementsVersionAndConsumesSamples: the registry half of
// the loop — a refresh retrain clones the serving model, trains on the
// sample-refined dataset, and returns a new version carrying the
// consumed sample count, all without touching the serving entry.
func TestRetrainIncrementsVersionAndConsumesSamples(t *testing.T) {
	reg, err := New("", 4, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := fullShapeModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	cur, err := reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Meta.Version != 1 {
		t.Fatalf("fresh model version = %d, want 1", cur.Meta.Version)
	}

	if _, err := reg.Retrain(key, cur, 1); err == nil {
		t.Fatal("retrain with no measured samples succeeded")
	}

	samples := realSamples(t, key.Machine, 42, 6)
	reg.SampleLog(key).Append(samples...)
	next, err := reg.Retrain(key, cur, 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Meta.Version != 2 || next.Meta.Samples != len(samples) {
		t.Fatalf("retrained meta = v%d/%d samples, want v2/%d",
			next.Meta.Version, next.Meta.Samples, len(samples))
	}
	if cur.Meta.Version != 1 || next.Model == cur.Model {
		t.Fatal("retrain mutated the serving entry")
	}
	if got := reg.SampleLog(key).SinceTrain(); got != 0 {
		t.Fatalf("%d samples still pending after retrain, want 0", got)
	}

	id := key.ID()
	hist := reg.History(id)
	if countEvents(hist, api.EventTrained) != 2 { // initial train + refresh
		t.Fatalf("history = %+v, want 2 trained events", hist)
	}

	// Promotion installs the new version as the serving entry.
	reg.Promote(next)
	after, err := reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if after.Meta.Version != 2 {
		t.Fatalf("serving version after promote = %d, want 2", after.Meta.Version)
	}
	if countEvents(reg.History(id), api.EventPromoted) != 1 {
		t.Fatalf("history after promote = %+v", reg.History(id))
	}
}

// TestServerCanaryPromote: a shadow whose answers tie the serving
// version must be promoted at the end of the window, the serving version
// answering every request in between without interruption, and the
// promoted version taking over the batcher in place.
func TestServerCanaryPromote(t *testing.T) {
	srv, ts := newRefreshServer(t, RefreshConfig{Threshold: 1 << 30, CanaryWindow: 2})
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	body := predictBody(t, "haswell", ObjectiveTime, 0)

	before := postPredict(t, ts, api.PathPredict, body)
	if before.ModelVersion != 1 {
		t.Fatalf("serving version = %d, want 1", before.ModelVersion)
	}

	e, err := srv.reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	srv.startCanary(key, cloneBumped(t, e))
	if v := srv.canaryVersion(key.ID()); v != 2 {
		t.Fatalf("canary version = %d, want 2", v)
	}

	// The window's predicts are answered by v1 while the shadow scores.
	for i := 0; i < 2; i++ {
		during := postPredict(t, ts, api.PathPredict, body)
		if during.ModelVersion != 1 {
			t.Fatalf("predict %d mid-canary served v%d, want v1", i, during.ModelVersion)
		}
		if !reflect.DeepEqual(during.Picks, before.Picks) {
			t.Fatalf("picks changed mid-canary: %+v vs %+v", during.Picks, before.Picks)
		}
	}

	// Scoring runs off the request path, so the verdict lands asynchronously
	// shortly after the window's samples drain.
	deadline := time.Now().Add(30 * time.Second)
	for srv.canaryVersion(key.ID()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canary verdict never landed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The tie promoted the shadow: v2 serves, identically (same weights).
	after := postPredict(t, ts, api.PathPredict, body)
	if after.ModelVersion != 2 {
		t.Fatalf("post-canary version = %d, want 2 (promoted)", after.ModelVersion)
	}
	if !reflect.DeepEqual(after.Picks, before.Picks) {
		t.Fatalf("promoted clone changed picks: %+v vs %+v", after.Picks, before.Picks)
	}
	if v := srv.canaryVersion(key.ID()); v != 0 {
		t.Fatalf("canary still in flight after verdict (v%d)", v)
	}
	promoted, err := srv.reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Meta.Version != 2 {
		t.Fatalf("registry serves v%d after promote, want v2", promoted.Meta.Version)
	}
	if countEvents(srv.reg.History(key.ID()), api.EventPromoted) != 1 {
		t.Fatalf("history = %+v, want one promoted event", srv.reg.History(key.ID()))
	}
}

// TestServerCanaryDemote: a shadow that loses the window (here: scored
// against oracle-quality answers it cannot beat) is discarded — the
// serving version and its batcher stay exactly as they were.
func TestServerCanaryDemote(t *testing.T) {
	srv, ts := newRefreshServer(t, RefreshConfig{Threshold: 1 << 30, CanaryWindow: 2})
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	body := predictBody(t, "haswell", ObjectiveTime, 0)

	before := postPredict(t, ts, api.PathPredict, body)
	e, err := srv.reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	srv.startCanary(key, cloneBumped(t, e))
	srv.mu.Lock()
	c := srv.canaries[key.ID()]
	srv.mu.Unlock()
	if c == nil {
		t.Fatal("canary not installed")
	}

	// Score the shadow against the per-cap oracle picks. An untrained
	// tiny model cannot match the oracle on every head, so feeding the
	// window oracle-quality "serving" answers forces a loss.
	g := kernels.MustCompile().Regions[0].Graph
	rd, sp := srv.groundTruth(key, g.RegionID)
	if rd == nil {
		t.Fatal("corpus region has no ground truth")
	}
	oracle := make([]int, len(sp.Caps()))
	for h := range oracle {
		oracle[h], _ = autotune.Oracle(rd, sp, autotune.TimeUnderCap{Cap: h})
	}
	shadowPicks, err := c.b.Predict(Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if predictQuality(rd, sp, key.Objective, shadowPicks) >= predictQuality(rd, sp, key.Objective, oracle) {
		t.Fatal("untrained shadow matches the oracle; demote fixture broken")
	}
	for i := 0; i < 2; i++ {
		srv.scoreCanary(c, canarySample{g: g, curPicks: oracle})
	}

	if v := srv.canaryVersion(key.ID()); v != 0 {
		t.Fatalf("canary still in flight after losing window (v%d)", v)
	}
	hist := srv.reg.History(key.ID())
	if countEvents(hist, api.EventDemoted) != 1 || countEvents(hist, api.EventPromoted) != 0 {
		t.Fatalf("history = %+v, want one demoted and no promoted event", hist)
	}
	after := postPredict(t, ts, api.PathPredict, body)
	if after.ModelVersion != 1 || !reflect.DeepEqual(after.Picks, before.Picks) {
		t.Fatalf("demote disturbed serving: v%d %+v vs %+v", after.ModelVersion, after.Picks, before.Picks)
	}
	cur, err := srv.reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Meta.Version != 1 {
		t.Fatalf("registry version after demote = %d, want 1", cur.Meta.Version)
	}
}

// TestServerMeasuredTuneFeedsLoop is the end-to-end acceptance path: a
// tune session with a measurement budget executes for real, reports its
// runs and samples, feeds the registry's log, trips the refresh
// threshold, and the resulting canary reaches a verdict on live predict
// traffic — with the serving version answering uninterrupted throughout.
func TestServerMeasuredTuneFeedsLoop(t *testing.T) {
	srv, ts := newRefreshServer(t, RefreshConfig{Threshold: 4, CanaryWindow: 2, Epochs: 1})
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	body := predictBody(t, "haswell", ObjectiveTime, 0)
	c := kernels.MustCompile()

	before := postPredict(t, ts, api.PathPredict, body)
	if before.ModelVersion != 1 {
		t.Fatalf("serving version = %d, want 1", before.ModelVersion)
	}

	resp, tr := postTune(t, ts.URL, api.PathTune, tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: ObjectiveTime, Strategy: "hybrid",
		RegionID: c.Regions[0].ID, Budget: 3, Seed: 7, MeasureBudget: 8,
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measured tune status %d", resp.StatusCode)
	}
	if tr.MeasuredRuns == 0 || len(tr.Samples) == 0 {
		t.Fatalf("measured tune reported no real runs: %+v", tr)
	}
	if tr.ModelVersion != 1 {
		t.Fatalf("measured tune served v%d, want v1", tr.ModelVersion)
	}
	for _, s := range tr.Samples {
		if s.TimeSec <= 0 || s.EnergyJ <= 0 || s.CapW <= 0 {
			t.Fatalf("degenerate sample %+v", s)
		}
	}

	// The samples tripped the threshold: a background retrain is under
	// way. Keep predicting — the traffic both proves v1 serves
	// uninterrupted and carries the canary to its verdict.
	id := key.ID()
	deadline := time.Now().Add(60 * time.Second)
	for {
		pred := postPredict(t, ts, api.PathPredict, body)
		if len(pred.Picks) == 0 {
			t.Fatalf("predict lost picks mid-refresh: %+v", pred)
		}
		hist := srv.reg.History(id)
		promoted := countEvents(hist, api.EventPromoted)
		demoted := countEvents(hist, api.EventDemoted)
		if promoted+demoted > 0 {
			cur, err := srv.reg.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			wantVersion := 1
			if promoted > 0 {
				wantVersion = 2
			}
			if cur.Meta.Version != wantVersion {
				t.Fatalf("verdict (%d promoted, %d demoted) but registry serves v%d",
					promoted, demoted, cur.Meta.Version)
			}
			if countEvents(hist, api.EventTrained) != 2 {
				t.Fatalf("history = %+v, want initial + refresh trained events", hist)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canary never reached a verdict; history = %+v", hist)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerModelDetail pins GET /v1/models/{id}: version, sample
// counters, and history are the loop's observability surface.
func TestServerModelDetail(t *testing.T) {
	srv, ts := newRefreshServer(t, RefreshConfig{Threshold: 1 << 30, CanaryWindow: 2})
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	postPredict(t, ts, api.PathPredict, predictBody(t, "haswell", ObjectiveTime, 0))

	get := func(id string) (*http.Response, api.ModelDetail) {
		resp, err := http.Get(ts.URL + api.PathModel(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		var det api.ModelDetail
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&det); err != nil {
				t.Fatal(err)
			}
		}
		return resp, det
	}

	id := key.ID()
	resp, det := get(id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detail status %d", resp.StatusCode)
	}
	if det.ID != id || det.Version != 1 || !det.Cached || det.Key.Machine != "haswell" {
		t.Fatalf("detail = %+v", det)
	}
	if countEvents(det.History, api.EventTrained) != 1 {
		t.Fatalf("detail history = %+v, want the initial train", det.History)
	}
	if det.CanaryVersion != 0 || det.PendingSamples != 0 {
		t.Fatalf("idle model shows refresh activity: %+v", det)
	}

	// Pending samples and the in-flight canary surface in the detail.
	srv.reg.SampleLog(key).Append(realSamples(t, key.Machine, 9, 3)...)
	e, err := srv.reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	srv.startCanary(key, cloneBumped(t, e))
	_, det = get(id)
	if det.PendingSamples != 3 || len(det.SampleRegions) == 0 {
		t.Fatalf("pending samples missing from detail: %+v", det)
	}
	if det.CanaryVersion != 2 {
		t.Fatalf("canary version in detail = %d, want 2", det.CanaryVersion)
	}

	resp, _ = get("000000000000000000000000")
	if body := decodeError(t, resp); body.Error.Code != api.CodeModelNotFound {
		t.Fatalf("unknown id code = %q, want model_not_found", body.Error.Code)
	}
	postResp, err := http.Post(ts.URL+api.PathModel(id), "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeError(t, postResp); body.Error.Code != api.CodeMethodNotAllowed {
		t.Fatalf("POST detail code = %q, want method_not_allowed", body.Error.Code)
	}
	postResp.Body.Close()
}

// TestServerTuneMeasureBudgetRejected pins the measurement-budget
// validation to its stable code.
func TestServerTuneMeasureBudgetRejected(t *testing.T) {
	_, ts := newTestServer(t)
	c := kernels.MustCompile()
	for _, budget := range []int{-1, api.MaxMeasureBudget + 1} {
		resp, err := http.Post(ts.URL+api.PathTune, "application/json", bytes.NewReader(tuneBody(t, api.TuneRequest{
			Machine: "haswell", Objective: ObjectiveTime, Strategy: "hybrid",
			RegionID: c.Regions[0].ID, Budget: 3, MeasureBudget: budget,
		})))
		if err != nil {
			t.Fatal(err)
		}
		body := decodeError(t, resp)
		resp.Body.Close()
		if body.Error.Code != api.CodeBudgetExceeded {
			t.Fatalf("measure budget %d: code %q, want budget_exceeded", budget, body.Error.Code)
		}
	}
}

// TestCanaryPromotionPredictRace: a predict or tune that looked up the
// serving batcher just before a canary promotion closed it is answered
// by the promoted version, never 503 unavailable. The lookup hook runs
// the promotion and closes the displaced batcher before the request
// reaches it, so the race happens on every run.
func TestCanaryPromotionPredictRace(t *testing.T) {
	srv, ts := newRefreshServer(t, RefreshConfig{Threshold: 1 << 30, CanaryWindow: 1 << 20})
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	body := predictBody(t, "haswell", ObjectiveTime, 0)
	var armed atomic.Pointer[canary]
	srv.lookedUp = func(b *Batcher) {
		if c := armed.Swap(nil); c != nil {
			srv.finishCanary(c, true)
			b.Close() // what finishCanary leaves to a goroutine, done first
		}
	}
	promote := func() {
		e, err := srv.reg.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		srv.startCanary(key, cloneBumped(t, e))
		srv.mu.Lock()
		armed.Store(srv.canaries[key.ID()])
		srv.mu.Unlock()
	}
	if v := postPredict(t, ts, api.PathPredict, body).ModelVersion; v != 1 {
		t.Fatalf("serving version = %d, want 1", v)
	}

	promote()
	if v := postPredict(t, ts, api.PathPredict, body).ModelVersion; v != 2 {
		t.Fatalf("predict across the promotion served v%d, want v2", v)
	}
	promote()
	resp, tr := postTune(t, ts.URL, api.PathTune, tuneBody(t, api.TuneRequest{
		Machine: "haswell", Objective: ObjectiveTime, Strategy: "gnn", RegionID: kernels.MustCompile().Regions[0].ID,
	}))
	if resp.StatusCode != http.StatusOK || tr.ModelVersion != 3 {
		t.Fatalf("tune across the promotion: status %d, v%d; want 200, v3", resp.StatusCode, tr.ModelVersion)
	}
	if armed.Load() != nil {
		t.Fatal("the lookup hook never ran")
	}
}
