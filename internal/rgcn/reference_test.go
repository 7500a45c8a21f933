package rgcn

import (
	"math"

	"pnptuner/internal/programl"
	"pnptuner/internal/tensor"
)

// The edge-list reference that CompileGraph, Merger and the layers' CSR
// gathers are tested against. It keeps every relation-direction's edges
// as (src, dst) pairs in edge order, merges graphs by renumbering their
// nodes into one graph, groups the edges into CSR plans with a separate
// stable grouping, and propagates by scattering along each edge. It
// shares no code with the builder it checks.

// refAdjacency is the edge-list form of a graph's or a batch's adjacency.
type refAdjacency struct {
	// edges[d] lists (src, dst) pairs for relation-direction d.
	edges [NumDirections][][2]int32
	// norm[d][i] is 1/indegree(i) under relation-direction d (0 if none).
	norm [NumDirections][]float64
}

// refBuild lists g's edges per relation-direction and normalizes them by
// in-degree.
func refBuild(g *programl.Graph) *refAdjacency {
	a := &refAdjacency{}
	for d := 0; d < NumDirections; d++ {
		a.norm[d] = make([]float64, len(g.Nodes))
	}
	for _, e := range g.Edges {
		fwd := int(e.Rel)
		rev := int(e.Rel) + int(programl.NumRelations)
		a.edges[fwd] = append(a.edges[fwd], [2]int32{int32(e.Src), int32(e.Dst)})
		a.norm[fwd][e.Dst]++
		a.edges[rev] = append(a.edges[rev], [2]int32{int32(e.Dst), int32(e.Src)})
		a.norm[rev][e.Src]++
	}
	for d := 0; d < NumDirections; d++ {
		for i, deg := range a.norm[d] {
			if deg > 0 {
				a.norm[d][i] = 1 / deg
			}
		}
	}
	return a
}

// refGroup groups the edges' values by key, stable within a key,
// returning the rowptr/index arrays of a CSR layout over n rows.
func refGroup(n int, edges [][2]int32, keyIdx, valIdx int) (ptr, val []int32) {
	ptr = make([]int32, n+1)
	for _, e := range edges {
		ptr[e[keyIdx]+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	val = make([]int32, len(edges))
	next := make([]int32, n)
	for _, e := range edges {
		k := e[keyIdx]
		val[ptr[k]+next[k]] = e[valIdx]
		next[k]++
	}
	return ptr, val
}

// propagate computes Â_d·h by scattering each edge's weighted source row
// into its destination row.
func (a *refAdjacency) propagate(d int, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(h.Rows, h.Cols)
	for _, e := range a.edges[d] {
		w := a.norm[d][e[1]]
		orow := out.Row(int(e[1]))
		for c, v := range h.Row(int(e[0])) {
			orow[c] += w * v
		}
	}
	return out
}

// propagateT computes Â_dᵀ·h, the transpose of propagate.
func (a *refAdjacency) propagateT(d int, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(h.Rows, h.Cols)
	for _, e := range a.edges[d] {
		w := a.norm[d][e[1]]
		orow := out.Row(int(e[0]))
		for c, v := range h.Row(int(e[1])) {
			orow[c] += w * v
		}
	}
	return out
}

// NewBatch is the reference batch over raw graphs: one graph holding
// them all, with node i of graph g renumbered Offsets[g]+i, whose edge
// lists are grouped into the plans the layers run on. Negative tokens and
// tokens int32 cannot hold clamp to 0.
func NewBatch(graphs []*programl.Graph) *Batch {
	merged := &programl.Graph{}
	offsets := []int{0}
	for _, g := range graphs {
		off := len(merged.Nodes)
		merged.Nodes = append(merged.Nodes, g.Nodes...)
		for _, e := range g.Edges {
			merged.Edges = append(merged.Edges, programl.Edge{Src: e.Src + off, Dst: e.Dst + off, Rel: e.Rel})
		}
		offsets = append(offsets, len(merged.Nodes))
	}
	n, ref := len(merged.Nodes), refBuild(merged)
	b := &Batch{Offsets: offsets, Adj: &Adjacency{NumNodes: n, Norm: ref.norm}}
	for d := 0; d < NumDirections; d++ {
		p := &b.Adj.plans[d]
		p.dstPtr, p.dstSrc = refGroup(n, ref.edges[d], 1, 0)
		p.srcPtr, p.srcDst = refGroup(n, ref.edges[d], 0, 1)
	}
	for _, node := range merged.Nodes {
		tok := int32(0)
		if node.Token >= 0 && node.Token <= math.MaxInt32 {
			tok = int32(node.Token)
		}
		b.Tokens = append(b.Tokens, tok)
		b.Kinds = append(b.Kinds, uint8(node.Kind))
	}
	return b
}
