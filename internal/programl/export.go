package programl

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// DOT renders the graph in Graphviz format: instruction vertices as boxes,
// variables as ellipses, constants as diamonds; edge colours by relation
// (control black, data blue, call red) as in the PROGRAML paper's figures.
func (g *Graph) DOT() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "digraph %q {\n", g.RegionID)
	b.WriteString("  rankdir=TB;\n")
	for i, n := range g.Nodes {
		shape := "box"
		switch n.Kind {
		case KindVariable:
			shape = "ellipse"
		case KindConstant:
			shape = "diamond"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", i, n.Text, shape)
	}
	for _, e := range g.Edges {
		color := "black"
		switch e.Rel {
		case RelData:
			color = "blue"
		case RelCall:
			color = "red"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [color=%s];\n", e.Src, e.Dst, color)
	}
	b.WriteString("}\n")
	return b.String()
}

// Wire is the graph's JSON schema, compatible in spirit with PROGRAML's
// protobuf export. Decoding into a Wire checks only the JSON shape;
// Graph converts it and checks what the shape cannot.
type Wire struct {
	RegionID string     `json:"region_id"`
	Nodes    []jsonNode `json:"nodes"`
	Edges    []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Kind  string `json:"kind"`
	Text  string `json:"text"`
	Token int    `json:"token"`
}

type jsonEdge struct {
	Src int    `json:"src"`
	Dst int    `json:"dst"`
	Rel string `json:"rel"`
}

var (
	kindByName = map[string]NodeKind{
		"instruction": KindInstruction, "variable": KindVariable, "constant": KindConstant,
	}
	relByName = map[string]Relation{"control": RelControl, "data": RelData, "call": RelCall}
)

// MarshalJSON serializes the graph.
func (g *Graph) MarshalJSON() ([]byte, error) {
	w := Wire{RegionID: g.RegionID}
	for _, n := range g.Nodes {
		w.Nodes = append(w.Nodes, jsonNode{Kind: n.Kind.String(), Text: n.Text, Token: n.Token})
	}
	for _, e := range g.Edges {
		w.Edges = append(w.Edges, jsonEdge{Src: e.Src, Dst: e.Dst, Rel: e.Rel.String()})
	}
	return json.Marshal(w)
}

// UnmarshalJSON deserializes a graph produced by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w Wire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("programl: decode graph: %w", err)
	}
	out, err := w.Graph()
	if err != nil {
		return err
	}
	*g = *out
	return nil
}

// Graph converts the wire form, rejecting unknown node kinds, unknown
// relations and edges whose ends are not nodes.
func (w *Wire) Graph() (*Graph, error) {
	g := &Graph{RegionID: w.RegionID, Nodes: make([]Node, len(w.Nodes)), Edges: make([]Edge, len(w.Edges))}
	for i, n := range w.Nodes {
		k, ok := kindByName[n.Kind]
		if !ok {
			return nil, fmt.Errorf("programl: unknown node kind %q", n.Kind)
		}
		g.Nodes[i] = Node{Kind: k, Text: n.Text, Token: n.Token}
	}
	for i, e := range w.Edges {
		r, ok := relByName[e.Rel]
		if !ok {
			return nil, fmt.Errorf("programl: unknown relation %q", e.Rel)
		}
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			return nil, fmt.Errorf("programl: edge (%d,%d) out of range", e.Src, e.Dst)
		}
		g.Edges[i] = Edge{Src: e.Src, Dst: e.Dst, Rel: r}
	}
	return g, nil
}
