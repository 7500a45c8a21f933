// Package programl builds flow-aware program multigraphs from outlined IR
// functions, following the PROGRAML representation (Cummins et al., ICML
// 2021): one vertex per instruction, separate vertices for variables and
// constants, and three typed edge relations — control flow between
// instructions, data flow through values, and call flow to callees.
package programl

import (
	"fmt"
	"strings"

	"pnptuner/internal/ir"
)

// NodeKind classifies graph vertices.
type NodeKind int

// Vertex kinds, mirroring PROGRAML's instruction/variable/constant split.
const (
	KindInstruction NodeKind = iota
	KindVariable
	KindConstant
)

func (k NodeKind) String() string { return name(kindNames, int(k)) }

// MarshalText spells the kind as the JSON export does.
func (k NodeKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Relation is the typed-edge flavour.
type Relation int

// Edge relations. NumRelations counts them; the RGCN allocates one weight
// matrix per relation and direction.
const (
	RelControl Relation = iota
	RelData
	RelCall
	NumRelations
)

func (r Relation) String() string { return name(relNames, int(r)) }

// MarshalText spells the relation as the JSON export does.
func (r Relation) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// kindNames and relNames spell the kinds and relations, in value order,
// as the JSON export writes them.
var (
	kindNames = []string{"instruction", "variable", "constant"}
	relNames  = []string{"control", "data", "call"}
)

func name(names []string, i int) string {
	if i < 0 || i >= len(names) {
		return "?"
	}
	return names[i]
}

// Node is one graph vertex. Text is the normalized IR token sequence the
// embedding is keyed on; Token is filled by the vocabulary.
type Node struct {
	Kind  NodeKind `json:"kind"`
	Text  string   `json:"text"`
	Token int      `json:"token"`
}

// Edge is one typed, directed edge.
type Edge struct {
	Src int      `json:"src"`
	Dst int      `json:"dst"`
	Rel Relation `json:"rel"`
}

// Graph is a flow-aware program multigraph for one OpenMP region. Its
// JSON tags, with the kind and relation names, are the export's schema,
// compatible in spirit with PROGRAML's protobuf export.
type Graph struct {
	RegionID string `json:"region_id"`
	Nodes    []Node `json:"nodes"`
	Edges    []Edge `json:"edges"`
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// Validate checks structural integrity — the guard the serving path runs
// on client-supplied graphs before they reach the batch engine, whose
// adjacency builder indexes node arrays without bounds checks.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("programl: %s: graph has no nodes", g.RegionID)
	}
	for i, n := range g.Nodes {
		if n.Kind < KindInstruction || n.Kind > KindConstant {
			return fmt.Errorf("programl: %s: node %d has unknown kind %d", g.RegionID, i, n.Kind)
		}
		if n.Token < 0 {
			return fmt.Errorf("programl: %s: node %d has negative token %d", g.RegionID, i, n.Token)
		}
	}
	for i, e := range g.Edges {
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			return fmt.Errorf("programl: %s: edge %d (%d→%d) out of range [0,%d)",
				g.RegionID, i, e.Src, e.Dst, len(g.Nodes))
		}
		if e.Rel < RelControl || e.Rel >= NumRelations {
			return fmt.Errorf("programl: %s: edge %d has unknown relation %d", g.RegionID, i, e.Rel)
		}
	}
	return nil
}

// Stats summarizes the graph for logs and docs.
func (g *Graph) Stats() string {
	per := map[Relation]int{}
	for _, e := range g.Edges {
		per[e.Rel]++
	}
	return fmt.Sprintf("%s: %d nodes, %d edges (control %d, data %d, call %d)",
		g.RegionID, len(g.Nodes), len(g.Edges), per[RelControl], per[RelData], per[RelCall])
}

// builder accumulates graph state during construction.
type builder struct {
	g         *Graph
	instNode  map[*ir.Instr]int
	varNode   map[ir.Value]int
	constNode map[string]int
	extNode   map[string]int
}

func (b *builder) addNode(kind NodeKind, text string) int {
	b.g.Nodes = append(b.g.Nodes, Node{Kind: kind, Text: text})
	return len(b.g.Nodes) - 1
}

func (b *builder) addEdge(src, dst int, rel Relation) {
	b.g.Edges = append(b.g.Edges, Edge{Src: src, Dst: dst, Rel: rel})
}

// FromFunction builds the PROGRAML graph of one (outlined) IR function.
func FromFunction(regionID string, f *ir.Function) (*Graph, error) {
	if f.IsDecl || len(f.Blocks) == 0 {
		return nil, fmt.Errorf("programl: %s: cannot graph a declaration", f.Nam)
	}
	b := &builder{
		g:         &Graph{RegionID: regionID},
		instNode:  map[*ir.Instr]int{},
		varNode:   map[ir.Value]int{},
		constNode: map[string]int{},
		extNode:   map[string]int{},
	}

	// Instruction vertices.
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			b.instNode[in] = b.addNode(KindInstruction, InstrText(in))
		}
	}

	// Control-flow edges: sequential within a block, terminator to each
	// successor's first instruction.
	for _, blk := range f.Blocks {
		for i := 0; i+1 < len(blk.Instrs); i++ {
			b.addEdge(b.instNode[blk.Instrs[i]], b.instNode[blk.Instrs[i+1]], RelControl)
		}
		term := blk.Terminator()
		if term == nil {
			return nil, fmt.Errorf("programl: %s: block %s unterminated", f.Nam, blk.Nam)
		}
		for _, succ := range blk.Succs() {
			if len(succ.Instrs) == 0 {
				return nil, fmt.Errorf("programl: %s: empty successor %s", f.Nam, succ.Nam)
			}
			b.addEdge(b.instNode[term], b.instNode[succ.Instrs[0]], RelControl)
		}
	}

	// Data-flow and call edges.
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			dst := b.instNode[in]
			for oi, op := range in.Operands {
				src, ok := b.operandNode(op)
				if !ok {
					continue
				}
				// A store writes its pointer operand: direction instr→var.
				if in.Op == ir.OpStore && oi == 1 {
					b.addEdge(dst, src, RelData)
					continue
				}
				b.addEdge(src, dst, RelData)
			}
			if in.Op == ir.OpCall {
				callee := b.externalNode(in.Callee)
				b.addEdge(dst, callee, RelCall)
				b.addEdge(callee, dst, RelCall)
			}
		}
	}
	return b.g, nil
}

// operandNode returns the vertex for an operand, creating variable and
// constant vertices on demand. Instruction results map to the defining
// instruction's vertex (ok=false only for nil operands).
func (b *builder) operandNode(op ir.Value) (int, bool) {
	switch v := op.(type) {
	case *ir.Instr:
		n, ok := b.instNode[v]
		return n, ok
	case *ir.Const:
		key := v.Ty.String() + " " + bucketConst(v.Text)
		if n, ok := b.constNode[key]; ok {
			return n, true
		}
		n := b.addNode(KindConstant, "const "+key)
		b.constNode[key] = n
		return n, true
	case *ir.Arg:
		if n, ok := b.varNode[v]; ok {
			return n, true
		}
		n := b.addNode(KindVariable, "param "+v.Ty.String())
		b.varNode[v] = n
		return n, true
	case *ir.Global:
		if n, ok := b.varNode[v]; ok {
			return n, true
		}
		text := "global " + v.Elem.String()
		if len(v.Dims) > 0 {
			text = fmt.Sprintf("global array%dd %s", len(v.Dims), v.Elem)
		}
		n := b.addNode(KindVariable, text)
		b.varNode[v] = n
		return n, true
	case *ir.Function:
		return b.externalNode(v.Nam), true
	}
	return 0, false
}

func (b *builder) externalNode(name string) int {
	if n, ok := b.extNode[name]; ok {
		return n
	}
	n := b.addNode(KindInstruction, "declare @"+name)
	b.extNode[name] = n
	return n
}

// InstrText returns the normalized token text of an instruction: opcode
// plus the type-level detail that distinguishes its behaviour, with SSA
// names stripped (PROGRAML normalizes identifiers away).
func InstrText(in *ir.Instr) string {
	switch in.Op {
	case ir.OpICmp, ir.OpFCmp:
		return fmt.Sprintf("%s %s %s", in.Op, in.Pred, in.Operands[0].Type())
	case ir.OpCall:
		return "call @" + in.Callee
	case ir.OpLoad:
		return "load " + in.Ty.String()
	case ir.OpStore:
		return "store " + in.Operands[0].Type().String()
	case ir.OpBr:
		return "br"
	case ir.OpCondBr:
		return "br i1"
	case ir.OpRet:
		if len(in.Operands) == 0 {
			return "ret void"
		}
		return "ret " + in.Operands[0].Type().String()
	case ir.OpAlloca:
		return "alloca"
	case ir.OpGEP:
		return "getelementptr"
	case ir.OpPhi:
		return "phi " + in.Ty.String()
	default:
		return fmt.Sprintf("%s %s", in.Op, in.Ty)
	}
}

// bucketConst maps a constant literal to a coarse bucket so the vocabulary
// stays closed: zero, one, small, large, and floating variants.
func bucketConst(text string) string {
	neg := strings.HasPrefix(text, "-")
	t := strings.TrimPrefix(text, "-")
	isFloat := strings.ContainsAny(t, ".eE") || t == "true" || t == "false"
	switch t {
	case "0", "0.0":
		return "zero"
	case "1", "1.0":
		if neg {
			return "negone"
		}
		return "one"
	case "true", "false":
		return t
	}
	if isFloat {
		return "float"
	}
	if len(t) <= 2 {
		return "small"
	}
	return "large"
}
