package registry

import (
	"encoding/json"
	"errors"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
)

// BenchmarkDecodePredict is the predict-body wire layer's row. replica
// is the replica's one-pass decode, gate the gate's routing pass and sdk
// the client's check of the graph it sends, all over one generated
// ~1.2k-node body (serve-large's shape); corpus is gate plus replica over
// one corpus body (serve-steady's), cycling through all of them.
func BenchmarkDecodePredict(b *testing.B) {
	graph, err := json.Marshal(bigGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	big, err := json.Marshal(api.PredictRequest{Machine: "haswell", Objective: ObjectiveTime, Graph: graph})
	if err != nil {
		b.Fatal(err)
	}
	var corpus [][]byte
	for i := range kernels.MustCompile().Regions {
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
		_, _, err := programl.DecodePredict(big)
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
		_, _, err := programl.DecodePredict(body)
		return err
	})
}
