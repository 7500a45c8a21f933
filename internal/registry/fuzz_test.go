package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/frontend"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
)

// bigGraph compiles one generated stencil nest of ~40 statements, the
// shape of the benchmark's large-graph workload: about 1.2k nodes.
func bigGraph(tb testing.TB) *programl.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	b.WriteString("const int N = 1200;\n")
	for a := 0; a < 6; a++ {
		fmt.Fprintf(&b, "double G%d[N][N];\n", a)
	}
	b.WriteString("\nvoid kernel_gen() {\n  #pragma omp parallel for schedule(dynamic)\n")
	b.WriteString("  for (i = 2; i < N - 2; i++) {\n    for (j = 2; j < N - 2; j++) {\n")
	for s := 0; s < 40; s++ {
		dst, src, d := rng.Intn(6), rng.Intn(6), 1+rng.Intn(2)
		fmt.Fprintf(&b, "      G%d[i][j] = (G%d[i-%d][j] + G%d[i][j+%d] + %d.5 * G%d[i][j]) / %d.0;\n",
			dst, src, d, src, d, 1+rng.Intn(7), src, 3+rng.Intn(4))
	}
	b.WriteString("    }\n  }\n}\n")
	prog, low, err := frontend.Compile("gen", b.String())
	if err != nil {
		tb.Fatal(err)
	}
	id := prog.Regions[0].ID
	g, err := programl.FromFunction(id, low.RegionFunc[id])
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// FuzzPredictBody drives arbitrary bodies through the replica's predict
// handler. Every answer is a 200 with a predict response or a typed 4xx
// envelope whose status matches its code: never a 5xx, never a panic.
func FuzzPredictBody(f *testing.F) {
	c := kernels.MustCompile()
	for i := 0; i < len(c.Regions); i += 8 {
		f.Add(predictBody(f, "haswell", ObjectiveTime, i))
	}
	f.Add(predictBody(f, "skylake", ObjectiveEDP, 1))
	graph, err := json.Marshal(bigGraph(f))
	if err != nil {
		f.Fatal(err)
	}
	big, _ := json.Marshal(api.PredictRequest{Machine: "haswell", Objective: ObjectiveTime, Graph: graph})
	f.Add(big)
	for _, graph := range malformedGraphs {
		f.Add([]byte(`{"machine":"haswell","objective":"time","graph":` + graph + `}`))
	}
	f.Add([]byte(`{`))

	srv, _ := newTestServer(f)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathPredict, bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			var resp api.PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Picks) == 0 {
				t.Fatalf("200 without picks: %s (%v)", rec.Body.Bytes(), err)
			}
			return
		}
		var env api.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
			t.Fatalf("status %d without an error envelope: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 500 || api.StatusFor(env.Error.Code) != rec.Code {
			t.Fatalf("status %d, code %q: %s", rec.Code, env.Error.Code, env.Error.Message)
		}
	})
}
