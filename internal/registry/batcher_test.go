package registry

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/tensor"
)

// corpusGraphs returns a mixed bag of real program graphs.
func corpusGraphs(t *testing.T, n int) []*programl.Graph {
	t.Helper()
	c := kernels.MustCompile()
	if len(c.Regions) < n {
		n = len(c.Regions)
	}
	graphs := make([]*programl.Graph, n)
	for i := 0; i < n; i++ {
		graphs[i] = c.Regions[i*len(c.Regions)/n].Graph
	}
	return graphs
}

// TestBatcherMatchesSingleRequestExactly is the serving-parity contract:
// N goroutines hammering the micro-batch queue with mixed graphs must get
// exactly the picks a lone request gets. Runs under -race in CI.
func TestBatcherMatchesSingleRequestExactly(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	graphs := corpusGraphs(t, 12)

	// Golden picks: one graph per forward pass, before any concurrency.
	want := make([][]int, len(graphs))
	for i, g := range graphs {
		want[i] = m.PredictGraphs([]*programl.Graph{g}, nil)[0]
	}

	b := NewBatcher(m, 8, 2*time.Millisecond)
	defer b.Close()

	const workers = 16
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := tensor.NewRNG(seed)
			for i := 0; i < perWorker; i++ {
				gi := rng.Intn(len(graphs))
				got, err := b.Predict(Request{Graph: graphs[gi]})
				if err != nil {
					t.Errorf("worker %d: %v", seed, err)
					return
				}
				if len(got) != len(want[gi]) {
					t.Errorf("graph %d: %d picks, want %d", gi, len(got), len(want[gi]))
					return
				}
				for h := range got {
					if got[h] != want[gi][h] {
						t.Errorf("graph %d head %d: batched pick %d != single pick %d",
							gi, h, got[h], want[gi][h])
						return
					}
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
}

func TestBatcherValidatesRequests(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	b := NewBatcher(m, 4, time.Millisecond)
	defer b.Close()

	if _, err := b.Predict(Request{}); err == nil {
		t.Fatal("accepted a nil graph")
	}
	if _, err := b.Predict(Request{Graph: &programl.Graph{}}); err == nil {
		t.Fatal("accepted an empty graph")
	}
	broken := &programl.Graph{
		RegionID: "broken",
		Nodes:    []programl.Node{{Kind: programl.KindInstruction, Text: "br"}},
		Edges:    []programl.Edge{{Src: 0, Dst: 9, Rel: programl.RelControl}},
	}
	if _, err := b.Predict(Request{Graph: broken}); err == nil {
		t.Fatal("accepted an out-of-range edge")
	}
	outOfVocab := &programl.Graph{
		RegionID: "outofvocab",
		Nodes:    []programl.Node{{Kind: programl.KindInstruction, Text: "br", Token: 1 << 20}},
	}
	if _, err := b.Predict(Request{Graph: outOfVocab}); err == nil ||
		!strings.Contains(err.Error(), "vocabulary") {
		t.Fatalf("token outside the model vocabulary: err = %v", err)
	}
	good := corpusGraphs(t, 1)[0]
	if _, err := b.Predict(Request{Graph: good, Extras: []float64{1, 2}}); err == nil {
		t.Fatal("accepted extras on a static model")
	}
	if _, err := b.Predict(Request{Graph: good}); err != nil {
		t.Fatalf("rejected a valid request: %v", err)
	}
}

// TestBatcherExtrasModels: models with dynamic features get their extras
// threaded through the batch correctly.
func TestBatcherExtrasModels(t *testing.T) {
	c := kernels.MustCompile()
	cfg := core.DefaultModelConfig()
	cfg.EmbedDim, cfg.Hidden, cfg.Epochs = 6, 6, 0
	cfg.UseCounters = true
	m := core.NewModel(cfg, c.Vocab.Size(), 2, 8)
	g := c.Regions[0].Graph
	ex := []float64{0.1, 0.2, 0.3, 0.4, 0.5}

	want := m.PredictGraphs([]*programl.Graph{g}, [][]float64{ex})[0]

	b := NewBatcher(m, 4, time.Millisecond)
	defer b.Close()
	got, err := b.Predict(Request{Graph: g, Extras: ex})
	if err != nil {
		t.Fatal(err)
	}
	for h := range want {
		if got[h] != want[h] {
			t.Fatalf("head %d: %d != %d", h, got[h], want[h])
		}
	}
	if _, err := b.Predict(Request{Graph: g}); err == nil {
		t.Fatal("accepted missing extras on a counters model")
	}
}

func TestBatcherClose(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	b := NewBatcher(m, 4, time.Millisecond)
	g := corpusGraphs(t, 1)[0]

	// Requests racing Close either complete or fail with ErrClosed —
	// never hang, never panic. Close lands once the first answer is in,
	// so it races live traffic.
	served := make(chan struct{})
	var once sync.Once
	markServed := func() { once.Do(func() { close(served) }) }
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer markServed() // a worker that fails early must not stall Close
			for j := 0; j < 20; j++ {
				if _, err := b.Predict(Request{Graph: g}); err != nil {
					if err != ErrClosed {
						t.Errorf("unexpected error: %v", err)
					}
					return
				}
				markServed()
			}
		}()
	}
	<-served
	b.Close()
	b.Close() // idempotent
	wg.Wait()

	if _, err := b.Predict(Request{Graph: g}); err != ErrClosed {
		t.Fatalf("Predict after Close = %v, want ErrClosed", err)
	}
}

// TestBatcherDispatchesLoneRequestAtOnce: a window never waits for
// company, so a lone request is answered at once even when the caller
// passes an hour-long maxWait (which the batcher ignores).
func TestBatcherDispatchesLoneRequestAtOnce(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	b := NewBatcher(m, 8, time.Hour)
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := b.PredictContext(ctx, Request{Graph: corpusGraphs(t, 1)[0]}); err != nil {
		t.Fatalf("lone predict: %v", err)
	}
}

// lateTimer is a caller context whose deadline has passed but whose timer
// has not fired yet, as on a starved CPU: Err still reports it live.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestBatcherShedsSpentDeadlineBeforeTimerFires: submit reads the
// deadline against the clock, so a spent budget is shed before any work
// even when the context's own timer is late.
func TestBatcherShedsSpentDeadlineBeforeTimerFires(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	b := NewBatcher(m, 8, 0)
	defer b.Close()
	if _, err := b.PredictContext(lateTimer{context.Background()}, Request{Graph: corpusGraphs(t, 1)[0]}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spent-deadline predict = %v, want context.DeadlineExceeded", err)
	}
}

// expiresInForward is a caller context whose budget runs out while its
// window is in the forward pass: live to submit's admission check and to
// the window's, done after that. Its Done channel is nil, as
// context.Background's is, so the reply is the only case submit's final
// select can take.
type expiresInForward struct {
	context.Context
	checks atomic.Int32
}

func (c *expiresInForward) Err() error {
	if c.checks.Add(1) <= 2 {
		return nil
	}
	return context.DeadlineExceeded
}

// TestBatcherShedsReplyAfterDeadline: a reply that lands after the
// caller's budget ran out is answered with the deadline error, not with
// picks. When the context's timer has also fired, submit's final select
// sees both cases ready and would otherwise pick one at random.
func TestBatcherShedsReplyAfterDeadline(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	b := NewBatcher(m, 8, 0)
	defer b.Close()
	ctx := &expiresInForward{Context: context.Background()}
	if picks, err := b.PredictContext(ctx, Request{Graph: corpusGraphs(t, 1)[0]}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("predict past its budget = %v, %v, want context.DeadlineExceeded", picks, err)
	}
}

// admittedThenDone is a caller context whose deadline passes while its
// request waits in the queue: it reports live to submit's one admission
// check and done to every check after that.
type admittedThenDone struct {
	context.Context // already cancelled
	checks          atomic.Int32
}

func (c *admittedThenDone) Err() error {
	if c.checks.Add(1) == 1 {
		return nil
	}
	return c.Context.Err()
}

// testBatcherObs returns batching instrumentation on a private registry.
func testBatcherObs() *batcherObs {
	tel := telemetry.New()
	return &batcherObs{
		shed:    tel.Counter("test_shed_total", "Shed."),
		wait:    tel.Histogram("test_wait_seconds", "Wait.", telemetry.Seconds, telemetry.DurationBuckets),
		window:  tel.Histogram("test_window_size", "Window.", telemetry.Units, telemetry.SizeBuckets),
		forward: tel.Histogram("test_forward_seconds", "Forward.", telemetry.Seconds, telemetry.DurationBuckets),
	}
}

// TestBatcherDropsAbandonedRequests: a request whose caller's ctx ended
// while it was queued is answered with the ctx error and never reaches
// forward, yet still counts in queue depth and queue wait.
func TestBatcherDropsAbandonedRequests(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	b := NewBatcher(m, 8, 0)
	defer b.Close()
	obs := testBatcherObs()
	b.obs = obs
	g := corpusGraphs(t, 1)[0]

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.PredictContext(&admittedThenDone{Context: cancelled}, Request{Graph: g}); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned predict = %v, want context.Canceled", err)
	}
	// The live request queues behind the abandoned one, so once it is
	// answered the abandoned one has been taken too.
	if _, err := b.Predict(Request{Graph: g}); err != nil {
		t.Fatal(err)
	}
	if n := obs.window.Sum(); n != 1 {
		t.Errorf("%d requests forwarded, want only the live one", n)
	}
	if n := obs.forward.Count(); n != 1 {
		t.Errorf("%d forward passes, want 1", n)
	}
	if n := obs.wait.Count(); n != 2 {
		t.Errorf("queue wait observed %d times, want 2 (abandoned requests still waited)", n)
	}
	if d := obs.depth.Load(); d != 0 {
		t.Errorf("queue depth %d after both were taken, want 0", d)
	}
}

// TestBatcherServesManyConcurrent floods a generous window with more
// requests than one batch holds: every request must answer with an
// in-range pick (the parity test above proves per-batch correctness).
func TestBatcherServesManyConcurrent(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveEDP}
	m, _ := tinyModel(key)
	b := NewBatcher(m, 16, 3*time.Millisecond)
	defer b.Close()
	graphs := corpusGraphs(t, 6)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			picks, err := b.Predict(Request{Graph: graphs[i%len(graphs)]})
			if err != nil {
				errs <- err
				return
			}
			if len(picks) != 1 || picks[0] < 0 || picks[0] >= 64 {
				errs <- errInvalidPick
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errInvalidPick = &invalidPickError{}

type invalidPickError struct{}

func (*invalidPickError) Error() string { return "pick out of range" }

// sanity: the error string formatter in validate covers the extras case.
func TestValidateErrorMentionsExtras(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	b := NewBatcher(m, 1, time.Millisecond)
	defer b.Close()
	_, err := b.Predict(Request{Graph: corpusGraphs(t, 1)[0], Extras: []float64{1}})
	if err == nil || !strings.Contains(err.Error(), "extra features") {
		t.Fatalf("err = %v", err)
	}
}

// TestBatcherPredictTopK pins the shortlist contract: k=1 equals the
// argmax pick, larger k returns rank-ordered prefixes of the same
// per-head scoring, and mixed Predict/PredictTopK traffic shares windows
// without cross-talk.
func TestBatcherPredictTopK(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	graphs := corpusGraphs(t, 6)

	b := NewBatcher(m, 8, 2*time.Millisecond)
	defer b.Close()

	for _, g := range graphs {
		picks, err := b.Predict(Request{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		top1, err := b.PredictTopK(Request{Graph: g}, 1)
		if err != nil {
			t.Fatal(err)
		}
		top3, err := b.PredictTopK(Request{Graph: g}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(top1) != len(picks) || len(top3) != len(picks) {
			t.Fatalf("head counts diverge: %d picks, %d top1, %d top3", len(picks), len(top1), len(top3))
		}
		for h := range picks {
			if top1[h][0] != picks[h] {
				t.Fatalf("head %d: top-1 %d != argmax %d", h, top1[h][0], picks[h])
			}
			if len(top3[h]) != 3 || top3[h][0] != picks[h] {
				t.Fatalf("head %d: top-3 %v must lead with argmax %d", h, top3[h], picks[h])
			}
		}
	}

	if _, err := b.PredictTopK(Request{Graph: graphs[0]}, 0); err == nil {
		t.Fatal("k=0 top-k request must fail")
	}
}
