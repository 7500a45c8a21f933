package programl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/frontend"
)

func TestDOTContainsAllNodesAndColors(t *testing.T) {
	g := buildGraph(t)
	dot := g.DOT()
	if !strings.HasPrefix(dot, "digraph") || !strings.HasSuffix(dot, "}\n") {
		t.Fatal("malformed DOT envelope")
	}
	for _, want := range []string{"shape=box", "shape=ellipse", "shape=diamond",
		"color=black", "color=blue", "color=red"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if got := strings.Count(dot, "->"); got != len(g.Edges) {
		t.Errorf("DOT has %d edges, want %d", got, len(g.Edges))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildGraph(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.RegionID != g.RegionID || len(back.Nodes) != len(g.Nodes) || len(back.Edges) != len(g.Edges) {
		t.Fatal("round trip lost structure")
	}
	for i := range g.Nodes {
		if back.Nodes[i] != g.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
	for i := range g.Edges {
		if back.Edges[i] != g.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// corruptGraphs each break one rule of the wire schema.
var corruptGraphs = []string{
	`{"nodes":[{"kind":"alien","text":"x"}],"edges":[]}`,
	`{"nodes":[{"kind":"variable","text":"x"}],"edges":[{"src":0,"dst":5,"rel":"data"}]}`,
	`{"nodes":[{"kind":"variable","text":"x"}],"edges":[{"src":-1,"dst":0,"rel":"data"}]}`,
	`{"nodes":[{"kind":"variable","text":"x"}],"edges":[{"src":0,"dst":0,"rel":"teleport"}]}`,
	`{"nodes":"x"}`,
	`{invalid json`,
}

func TestUnmarshalRejectsCorruptGraphs(t *testing.T) {
	for i, src := range corruptGraphs {
		var g Graph
		if err := g.UnmarshalJSON([]byte(src)); err == nil {
			t.Errorf("case %d: accepted corrupt graph", i)
		}
	}
}

// wire is the graph's JSON schema as the reflective decode the scanner
// replaced read it.
type wire struct {
	RegionID string `json:"region_id"`
	Nodes    []struct {
		Kind  string `json:"kind"`
		Text  string `json:"text"`
		Token int    `json:"token"`
	} `json:"nodes"`
	Edges []struct {
		Src int    `json:"src"`
		Dst int    `json:"dst"`
		Rel string `json:"rel"`
	} `json:"edges"`
}

// referenceGraph is the reflective decode the scanner replaced, kept as
// FuzzWire's reference: the wire schema through json.Unmarshal, then
// its kind, relation and edge-range checks and the replica's size
// limits.
func referenceGraph(w *wire) (*Graph, error) {
	if len(w.Nodes) > api.MaxGraphNodes || len(w.Edges) > api.MaxGraphEdges {
		return nil, errors.New("graph too large")
	}
	g := &Graph{RegionID: w.RegionID, Nodes: make([]Node, len(w.Nodes)), Edges: make([]Edge, len(w.Edges))}
	for i, n := range w.Nodes {
		k := NodeKind(slices.Index(kindNames, n.Kind))
		if k < 0 {
			return nil, fmt.Errorf("unknown node kind %q", n.Kind)
		}
		g.Nodes[i] = Node{Kind: k, Text: n.Text, Token: n.Token}
	}
	for i, e := range w.Edges {
		r := Relation(slices.Index(relNames, e.Rel))
		if r < 0 {
			return nil, fmt.Errorf("unknown relation %q", e.Rel)
		}
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			return nil, fmt.Errorf("edge (%d,%d) out of range", e.Src, e.Dst)
		}
		g.Edges[i] = Edge{Src: e.Src, Dst: e.Dst, Rel: r}
	}
	return g, nil
}

// referencePredict decodes a predict body as both tiers did before the
// scanner: one json.Decoder value, the replica's graph decoded through
// referenceGraph, the gate's only checked to be an object or null.
func referencePredict(body []byte) (req api.PredictRequest, g *Graph, errReplica, errGate error) {
	var replica struct {
		api.PredictRequest
		Graph *wire `json:"graph"`
	}
	if errReplica = json.NewDecoder(bytes.NewReader(body)).Decode(&replica); errReplica == nil && replica.Graph != nil {
		g, errReplica = referenceGraph(replica.Graph)
	}
	var gate struct {
		api.PredictRequest
		Graph struct{} `json:"graph"`
	}
	errGate = json.NewDecoder(bytes.NewReader(body)).Decode(&gate)
	return replica.PredictRequest, g, errReplica, errGate
}

// largeGraph is a generated region of serve-large's shape: one stencil
// loop of 40 statements over six arrays, ~1.2k nodes.
func largeGraph(tb testing.TB) *Graph {
	tb.Helper()
	var b strings.Builder
	b.WriteString("const int N = 1200;\n")
	for a := 0; a < 6; a++ {
		fmt.Fprintf(&b, "double G%d[N][N];\n", a)
	}
	b.WriteString("void kernel_gen() {\n#pragma omp parallel for schedule(dynamic)\n")
	b.WriteString("for (i = 2; i < N - 2; i++) {\nfor (j = 2; j < N - 2; j++) {\n")
	for s := 0; s < 40; s++ {
		d, src := 1+s%2, (s*5+1)%6
		fmt.Fprintf(&b, "G%d[i][j] = (G%d[i-%d][j] + G%d[i][j+%d] + %d.5 * G%d[i][j]) / %d.0;\n",
			s%6, src, d, src, d, 1+s%7, src, 3+s%4)
	}
	b.WriteString("}\n}\n}\n")
	prog, low, err := frontend.Compile("gen", b.String())
	if err != nil {
		tb.Fatal(err)
	}
	g, err := FromFunction(prog.Regions[0].ID, low.RegionFunc[prog.Regions[0].ID])
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// FuzzWire holds the one-pass decoder to the reflective reference, on
// every input read both as a graph and as a predict body: both accept
// or both reject, and what both accept decodes to DeepEqual values. An
// accepted graph has every edge inside its node range and survives a
// marshal round trip unchanged, the routing pass accepts exactly what
// the gate's reflective decode did, and the SDK's graph check,
// api.ValidJSON, agrees with encoding/json.Valid.
func FuzzWire(f *testing.F) {
	data, err := json.Marshal(buildGraph(f))
	if err != nil {
		f.Fatal(err)
	}
	large, err := json.Marshal(largeGraph(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"machine":"haswell","objective":"time","counters":[1,2.5e3],"graph":` + string(data) + `} junk`))
	f.Add([]byte(`{"machine":"haswell","objective":"time","graph":` + string(large) + `}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	for _, src := range corruptGraphs {
		f.Add([]byte(src))
	}
	for _, src := range []string{
		`{"Machine":"m","graph":{"nodes":[{"kind":"variable","text":"a"},{"kind":"constant"}]},"GRAPH":{"region_id":"\ud800x"}}`,
		`{"graph":{"nodes":[{"kind":"variable","text":"a"},{"kind":"constant"}],"nodes":[{"text":"é\xff"}]}}`,
		`{"graph":{"nodes":[{"Kind":"call"}],"edges":[{"src":0,"dst":0,"rel":"call","rel":null}]}}`,
		`{"graph":{"nodes":[{"kind":"variable","token":1.0}]}}`,
		`{"graph":null,"counters":[1e400]}`,
		`{"graph":{"nodes":[]},"graph":null}`,
		`{"x":[[{"y":"\"\\\/\b\f\n\r\t😀"}]],"graph":{"nodes":[null,{}]}}`,
		`nullx`,
		"{}\x00",
		`{"\t"`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := api.ValidJSON(data), json.Valid(data); got != want {
			t.Fatalf("api.ValidJSON = %v, json.Valid = %v", got, want)
		}
		var w wire
		var want *Graph
		errWant := json.Unmarshal(data, &w)
		if errWant == nil {
			want, errWant = referenceGraph(&w)
		}
		var g Graph
		errGraph := g.UnmarshalJSON(data)
		if (errWant == nil) != (errGraph == nil) {
			t.Fatalf("reference error %v, UnmarshalJSON error %v", errWant, errGraph)
		}
		if errWant == nil {
			if !reflect.DeepEqual(*want, g) {
				t.Fatalf("reference gave %+v, UnmarshalJSON %+v", *want, g)
			}
			for i, e := range g.Edges {
				if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
					t.Fatalf("accepted edge %d (%d→%d) outside %d nodes", i, e.Src, e.Dst, len(g.Nodes))
				}
			}
			back, err := json.Marshal(&g)
			if err != nil {
				t.Fatal(err)
			}
			var again Graph
			if err := again.UnmarshalJSON(back); err != nil || !reflect.DeepEqual(again, g) {
				t.Fatalf("round trip of %s: %+v, %v; want %+v", back, again, err, g)
			}
		}

		wantReq, wantGraph, errReplica, errGate := referencePredict(data)
		req, body, err := DecodePredict(data, nil, nil)
		if (errReplica == nil) != (err == nil) {
			t.Fatalf("reference error %v, DecodePredict error %v", errReplica, err)
		}
		if err == nil && (!reflect.DeepEqual(wantReq, req) || !reflect.DeepEqual(wantGraph, body)) {
			t.Fatalf("reference gave %+v, %+v; DecodePredict %+v, %+v", wantReq, wantGraph, req, body)
		}
		routed, _, end, err := RoutePredict(data)
		if (errGate == nil) != (err == nil) {
			t.Fatalf("reference error %v, RoutePredict error %v", errGate, err)
		}
		if err == nil && !reflect.DeepEqual(wantReq, routed) {
			t.Fatalf("reference routed %+v, RoutePredict %+v", wantReq, routed)
		}
		if err == nil && (end > len(data) || !json.Valid(data[:end])) {
			t.Fatalf("RoutePredict ended at %d, not after a value", end)
		}
	})
}
