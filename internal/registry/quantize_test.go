package registry

// Float32 serving tests: every batcher forwards on a float32 snapshot of
// its registry entry's float64 model, and the picks it serves must equal
// the float64 model's own, bit for bit, on corpus regions and on a
// serve-large-sized graph. Plus the off-request-path canary scoring
// semantics: enqueue never blocks, drops when the queue is full, and
// goes dead after the verdict.

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
)

// parityKeys are the four (machine, objective) keys a server trains.
var parityKeys = []Key{
	{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime},
	{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveEDP},
	{Machine: "skylake", Scenario: ScenarioFull, Objective: ObjectiveTime},
	{Machine: "skylake", Scenario: ScenarioFull, Objective: ObjectiveEDP},
}

// parityGraphs returns three corpus regions and bigGraph, the last
// annotated with the corpus vocabulary as the predict handler would.
func parityGraphs(t *testing.T) []*programl.Graph {
	t.Helper()
	c := kernels.MustCompile()
	big := bigGraph(t)
	c.Vocab.Annotate(big)
	return []*programl.Graph{c.Regions[0].Graph, c.Regions[3].Graph, c.Regions[7].Graph, big}
}

// float64Picks is the reference a served answer must equal: the float64
// model's argmax picks and top-3 lists for g, one graph per pass.
func float64Picks(m *core.Model, g *programl.Graph) (picks []int, top3 [][]int) {
	one := []*rgcn.CompiledGraph{rgcn.CompileGraph(g)}
	return m.PredictGraphs([]*programl.Graph{g}, nil)[0], m.TopKCompiled(one, nil, 3)[0]
}

// TestQuantizedBatcherMatchesFloat64: for every key, with both test
// model shapes, the batcher answers Predict and PredictTopK as the
// float64 model it snapshots does.
func TestQuantizedBatcherMatchesFloat64(t *testing.T) {
	graphs := parityGraphs(t)
	shapes := map[string]func(Key) (*core.Model, core.ModelMeta){
		"tiny": tinyModel, "fullShape": fullShapeModel,
	}
	for shape, build := range shapes {
		for _, key := range parityKeys {
			t.Run(shape+"/"+key.Machine+"/"+key.Objective, func(t *testing.T) {
				m, _ := build(key)
				b := NewBatcher(m, 4, 0)
				defer b.Close()
				for i, g := range graphs {
					want, wantK := float64Picks(m, g)
					got, err := b.Predict(Request{Graph: g})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("graph %d: float64 picks %v, served %v", i, want, got)
					}
					gotK, err := b.PredictTopK(Request{Graph: g}, 3)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantK, gotK) {
						t.Fatalf("graph %d: float64 top-3 %v, served %v", i, wantK, gotK)
					}
				}
			})
		}
	}
}

// TestServerQuantizedServesIdenticalPicks: end to end over HTTP, every
// key's served picks are the float64 model's argmax per target, and the
// server's own batcher returns the float64 top-3.
func TestServerQuantizedServesIdenticalPicks(t *testing.T) {
	srv, ts := newTestServer(t)
	graphs := parityGraphs(t)
	for _, key := range parityKeys {
		m, _ := tinyModel(key)
		sp, err := key.Space()
		if err != nil {
			t.Fatal(err)
		}
		targets, err := core.ObjectiveTargets(sp, key.Objective)
		if err != nil {
			t.Fatal(err)
		}
		b, err := srv.batcherFor(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range graphs {
			name := fmt.Sprintf("%s/%s graph %d", key.Machine, key.Objective, i)
			want, wantK := float64Picks(m, g)
			graphJSON, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(api.PredictRequest{Machine: key.Machine, Objective: key.Objective, Graph: graphJSON})
			if err != nil {
				t.Fatal(err)
			}
			resp := postPredict(t, ts, api.PathPredict, body)
			if len(resp.Picks) != len(targets) {
				t.Fatalf("%s: %d picks, want %d", name, len(resp.Picks), len(targets))
			}
			for j, tg := range targets {
				if got := resp.Picks[j].ConfigIndex; got != want[tg.Head] {
					t.Fatalf("%s target %d: served pick %d, float64 %d", name, j, got, want[tg.Head])
				}
			}
			gotK, err := b.PredictTopK(Request{Graph: g}, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantK, gotK) {
				t.Fatalf("%s: float64 top-3 %v, served %v", name, wantK, gotK)
			}
		}
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
