package programl

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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

// FuzzWire: decoding into a Wire and converting it agrees with
// Graph.UnmarshalJSON on every input — the same graph, or both an
// error — and an accepted graph has every edge inside its node range
// and survives a marshal round trip unchanged.
func FuzzWire(f *testing.F) {
	data, err := json.Marshal(buildGraph(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	for _, src := range corruptGraphs {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Wire
		var viaWire *Graph
		errWire := json.Unmarshal(data, &w)
		if errWire == nil {
			viaWire, errWire = w.Graph()
		}
		var g Graph
		errGraph := g.UnmarshalJSON(data)
		if (errWire == nil) != (errGraph == nil) {
			t.Fatalf("Wire.Graph error %v, UnmarshalJSON error %v", errWire, errGraph)
		}
		if errWire != nil {
			return
		}
		if !reflect.DeepEqual(*viaWire, g) {
			t.Fatalf("Wire.Graph gave %+v, UnmarshalJSON %+v", *viaWire, g)
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
	})
}
