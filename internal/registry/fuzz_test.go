package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/frontend"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
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

// FuzzDecodeScratch holds the replica's pooled decode to a fresh one. Each
// input decodes fresh with no interner (the decode FuzzWire holds to
// encoding/json), then into scratch that a larger, different graph
// filled first, with the corpus vocabulary's interner, and with both.
// After Annotate and rgcn.CompileGraph every way must give the same
// request, graph, compiled graph and error.
func FuzzDecodeScratch(f *testing.F) {
	v := kernels.MustCompile().Vocab
	graph, err := json.Marshal(bigGraph(f))
	if err != nil {
		f.Fatal(err)
	}
	big, _ := json.Marshal(api.PredictRequest{Machine: "haswell", Objective: ObjectiveTime, Graph: graph})
	f.Add(big)
	f.Add(predictBody(f, "haswell", ObjectiveTime, 0))
	for _, graph := range []string{
		`{"nodes":[{"kind":"instruction","text":"no such text"},{"kind":"variable","text":"load\u0020double"}]}`,
		`{"nodes":[{"kind":"variable","text":"é😀"},{"kind":"constant","text":"\ud800"},{"kind":"variable","text":"` + "\xff" + `"}]}`,
		`{"nodes":[{"kind":"instruction","text":null,"token":null}],"edges":[{"src":0,"dst":0,"rel":"data"}]}`,
		// Nodes and edges missing fields the scratch's first graph had.
		`{"nodes":[{"kind":"instruction"},{"text":"load double"},{}],"edges":[{"src":0,"dst":1},{"rel":"call"}]}`,
		`{"nodes":[{"kind":"variable","text":"a"},{"kind":"constant","text":"b"}],"nodes":[{"kind":"constant"}]}`,
		`{"nodes":[],"edges":null}`,
	} {
		f.Add([]byte(`{"machine":"haswell","objective":"time","graph":` + graph + `}`))
	}
	f.Add([]byte(`{"graph":{"nodes":[{"kind":"variable","text":"a"}]},"graph":null,"graph":{"region_id":"r"}}`))
	decode := func(data []byte, into *programl.Graph, intern func([]byte) string) (string, api.PredictRequest, *programl.Graph, *rgcn.CompiledGraph) {
		req, g, err := programl.DecodePredict(data, into, intern)
		if err != nil {
			return err.Error(), api.PredictRequest{}, nil, nil
		}
		if g == nil {
			return "", req, nil, nil
		}
		v.Annotate(g)
		return "", req, g, rgcn.CompileGraph(g)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantErr, wantReq, want, wantCG := decode(data, nil, nil)
		for _, way := range []struct {
			name    string
			scratch bool
			intern  func([]byte) string
		}{{"scratch", true, nil}, {"interned", false, v.Interner()}, {"scratch, interned", true, v.Interner()}} {
			var into *programl.Graph
			if way.scratch {
				into = new(programl.Graph)
				if _, _, err := programl.DecodePredict(big, into, nil); err != nil {
					t.Fatal(err)
				}
			}
			errGot, req, g, cg := decode(data, into, way.intern)
			if errGot != wantErr || !reflect.DeepEqual(req, wantReq) || !reflect.DeepEqual(g, want) || !reflect.DeepEqual(cg, wantCG) {
				t.Fatalf("%s: error %q, request %+v, graph %+v; fresh gave %q, %+v, %+v", way.name, errGot, req, g, wantErr, wantReq, want)
			}
		}
	})
}
