package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
)

// BenchmarkDecodePredict is the predict-body wire layer's row. replica
// is the replica's one-pass decode, into reused scratch with the corpus
// vocabulary's interner as the server runs it, gate the gate's routing
// pass and sdk the client's check of the graph it sends, all over one
// generated ~1.2k-node body (serve-large's shape); corpus is gate plus
// replica over one corpus body (serve-steady's), cycling through all of
// them.
func BenchmarkDecodePredict(b *testing.B) {
	graph, err := json.Marshal(bigGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	big, err := json.Marshal(api.PredictRequest{Machine: "haswell", Objective: ObjectiveTime, Graph: graph})
	if err != nil {
		b.Fatal(err)
	}
	c := kernels.MustCompile()
	var scratch programl.Graph
	intern := c.Vocab.Interner()
	var corpus [][]byte
	for i := range c.Regions {
		corpus = append(corpus, predictBody(b, "haswell", ObjectiveTime, i))
	}
	run := func(name string, size int, op func(i int) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("replica", len(big), func(int) error {
		_, _, err := programl.DecodePredict(big, &scratch, intern)
		return err
	})
	run("gate", len(big), func(int) error {
		_, _, _, err := programl.RoutePredict(big)
		return err
	})
	run("sdk", len(graph), func(int) error {
		if !api.ValidJSON(graph) {
			return errors.New("graph is not one JSON value")
		}
		return nil
	})
	run("corpus", 0, func(i int) error {
		body := corpus[i%len(corpus)]
		if _, _, _, err := programl.RoutePredict(body); err != nil {
			return err
		}
		_, _, err := programl.DecodePredict(body, &scratch, intern)
		return err
	})
}

// servePredictHandler serves untrained models of DefaultModelConfig's
// widths, the served shape, with MaxBatch 16, and returns its handler
// with a predict body of bigGraph, serve-large's shape.
func servePredictHandler(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	reg, err := New("", 4, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := untrainedModel(k, core.DefaultModelConfig())
		return m, meta, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(reg, kernels.MustCompile().Vocab, ServerConfig{MaxBatch: 16})
	tb.Cleanup(srv.Close)
	graph, err := json.Marshal(bigGraph(tb))
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(api.PredictRequest{Machine: "haswell", Objective: ObjectiveTime, Graph: graph})
	if err != nil {
		tb.Fatal(err)
	}
	return srv.Handler(), body
}

// servePredict posts body to h as one predict and checks for a 200.
func servePredict(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathPredict, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("predict: status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkServePredict is one in-process replica predict of a
// serve-large graph, from the body read through the response.
func BenchmarkServePredict(b *testing.B) {
	h, body := servePredictHandler(b)
	servePredict(b, h, body) // builds the model and its batcher
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		servePredict(b, h, body)
	}
}

// TestServePredictAllocsCeiling holds BenchmarkServePredict's predict to
// pooled decoding: the body, the graph and the known node texts allocate
// nothing after warm-up. Without the pool and the interning it allocated
// ~1,480 times per predict.
func TestServePredictAllocsCeiling(t *testing.T) {
	h, body := servePredictHandler(t)
	servePredict(t, h, body)
	if allocs := testing.AllocsPerRun(20, func() { servePredict(t, h, body) }); allocs > 300 {
		t.Fatalf("a serve-large predict allocates %.0f times, ceiling 300", allocs)
	}
}
