package registry

// Quantized-serving tests (ISSUE 9): a server in Quantize mode funnels
// every forward pass through the float32 CompiledModel, and its picks
// must match the float64 server's bit-for-bit. Plus the off-request-path
// canary scoring semantics satellite: enqueue never blocks, drops when
// the queue is full, and goes dead after the verdict.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
)

// newQuantizedServer is newTestServer with the quantized serving path on.
func newQuantizedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := New("", 4, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := tinyModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := kernels.MustCompile()
	srv := NewServer(reg, c.Vocab, ServerConfig{
		MaxBatch: 8, Quantize: true,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestQuantizedBatcherMatchesFloat64: the same model behind a quantized
// and a float64 batcher answers Predict and PredictTopK identically.
func TestQuantizedBatcherMatchesFloat64(t *testing.T) {
	m, _ := tinyModel(Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime})
	ref := NewBatcher(m, 4, time.Millisecond)
	defer ref.Close()
	qb := newBatcher(m.MustQuantize(), 4)
	defer qb.Close()

	c := kernels.MustCompile()
	for _, idx := range []int{0, 3, 7} {
		g := c.Regions[idx].Graph
		want, err := ref.Predict(Request{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		got, err := qb.Predict(Request{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("region %d: float64 picks %v, quantized %v", idx, want, got)
		}
		wantK, err := ref.PredictTopK(Request{Graph: g}, 3)
		if err != nil {
			t.Fatal(err)
		}
		gotK, err := qb.PredictTopK(Request{Graph: g}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantK, gotK) {
			t.Fatalf("region %d: float64 top-3 %v, quantized %v", idx, wantK, gotK)
		}
	}
}

// TestServerQuantizedServesIdenticalPicks: end to end over HTTP, the
// quantized server's responses match the float64 server's for both
// objectives.
func TestServerQuantizedServesIdenticalPicks(t *testing.T) {
	srv, qts := newQuantizedServer(t)
	_, ts := newTestServer(t)

	for _, objective := range []string{ObjectiveTime, ObjectiveEDP} {
		body := predictBody(t, "haswell", objective, 0)
		want := postPredict(t, ts, api.PathPredict, body)
		got := postPredict(t, qts, api.PathPredict, body)
		if !reflect.DeepEqual(want.Picks, got.Picks) {
			t.Fatalf("%s: float64 served %+v, quantized %+v", objective, want.Picks, got.Picks)
		}
	}

	// The serving batcher really is the quantized one, not a fallback.
	b, err := srv.batcherFor(context.Background(), Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.model.(*core.CompiledModel); !ok {
		t.Fatalf("quantized server built a batcher over %T", b.model)
	}
}

// TestCanaryEnqueueSemantics: the predict-path handoff to canary scoring
// never blocks — it drops on a full queue and goes dead after halt.
func TestCanaryEnqueueSemantics(t *testing.T) {
	c := &canary{
		scores:  make(chan canarySample, 2),
		stopped: make(chan struct{}),
	}
	g := &programl.Graph{}
	if !c.enqueue(canarySample{g: g}) || !c.enqueue(canarySample{g: g}) {
		t.Fatal("enqueue with queue headroom failed")
	}
	if c.enqueue(canarySample{g: g}) {
		t.Fatal("enqueue past capacity claims success instead of dropping")
	}
	c.halt()
	c.halt() // idempotent
	<-c.scores
	if c.enqueue(canarySample{g: g}) {
		t.Fatal("enqueue after halt claims success")
	}
}
