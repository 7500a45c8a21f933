package registry

import (
	"net/http/httptest"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
)

// BenchmarkRefreshRetrain measures one background refresh retrain — the
// cost the measure→learn loop pays per version: dataset derivation from
// the sample log, the serialized-clone round trip, and a one-epoch
// fine-tune on the refined fold. This is what a pnpserve replica spends
// off the request path every time -refresh-threshold trips.
func BenchmarkRefreshRetrain(b *testing.B) {
	reg, err := New("", 4, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := fullShapeModel(k)
		return m, meta, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	cur, err := reg.Get(key)
	if err != nil {
		b.Fatal(err)
	}
	reg.SampleLog(key).Append(realSamples(b, key.Machine, 1, 16)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Retrain(key, cur, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanaryPredict measures the live-traffic cost of a shadow
// rollout: /v1/predict round trips with no canary in flight versus with
// one scoring inline (shadow forward + two ground-truth oracle scans per
// request). The window never closes, so every iteration pays the full
// shadow path — the worst case a client sees mid-rollout.
func BenchmarkCanaryPredict(b *testing.B) {
	newServer := func(b *testing.B) (*Server, *httptest.Server) {
		reg, err := New("", 4, func(k Key) (*core.Model, core.ModelMeta, error) {
			m, meta := fullShapeModel(k)
			return m, meta, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServer(reg, kernels.MustCompile().Vocab, ServerConfig{
			MaxBatch: 8,
			Refresh:  RefreshConfig{Threshold: 1 << 30, CanaryWindow: 1 << 30},
		})
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		return srv, ts
	}
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	body := predictBody(b, "haswell", ObjectiveTime, 0)

	b.Run("serving", func(b *testing.B) {
		_, ts := newServer(b)
		postPredict(b, ts, api.PathPredict, body) // train + warm the batcher
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postPredict(b, ts, api.PathPredict, body)
		}
	})
	b.Run("with-canary", func(b *testing.B) {
		srv, ts := newServer(b)
		postPredict(b, ts, api.PathPredict, body)
		e, err := srv.reg.Get(key)
		if err != nil {
			b.Fatal(err)
		}
		blob, err := e.Model.Marshal(e.Meta)
		if err != nil {
			b.Fatal(err)
		}
		m, meta, err := core.UnmarshalModel(blob)
		if err != nil {
			b.Fatal(err)
		}
		meta.Version++
		srv.startCanary(key, &Entry{Key: key, Model: m, Meta: meta})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postPredict(b, ts, api.PathPredict, body)
		}
	})
}
