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

// MarshalJSON serializes the graph in the schema its JSON tags spell.
func (g *Graph) MarshalJSON() ([]byte, error) {
	type plain Graph // the fields without this method
	return json.Marshal((*plain)(g))
}
