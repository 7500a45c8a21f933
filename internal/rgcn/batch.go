// Batched graph inference: N PROGRAML graphs merge into one block-diagonal
// adjacency (offset node IDs, concatenated per-relation edge lists and
// norms) so a single forward pass scores a whole minibatch, and a CSR
// execution plan regroups every relation-direction's edges by output row,
// so any range of output rows can be gathered on its own. That is what
// lets LayerOf.Forward split a large batch's rows across the tensor pool
// once per layer. The plan path is numerically equivalent to the
// per-graph reference path up to float summation order.
package rgcn

import (
	"fmt"

	"pnptuner/internal/programl"
	"pnptuner/internal/tensor"
)

// csrPlan is one relation-direction's edges regrouped by output row: by
// destination for the forward gather (propagate) and by source for the
// backward transpose (propagateT). Each output row reads only its own
// neighbour list, so disjoint row ranges can be computed concurrently
// without racing on a scatter-add.
type csrPlan struct {
	dstPtr []int32 // len NumNodes+1; in-neighbours of node i are dstSrc[dstPtr[i]:dstPtr[i+1]]
	dstSrc []int32
	srcPtr []int32 // len NumNodes+1; out-neighbours of node i are srcDst[srcPtr[i]:srcPtr[i+1]]
	srcDst []int32
}

// edgeCount returns the number of edges the plan routes.
func (p *csrPlan) edgeCount() int { return len(p.dstSrc) }

// buildCSR groups values by key (stable within a key), returning the
// rowptr/index arrays of a CSR layout over n rows.
func buildCSR(n int, edges [][2]int32, keyIdx, valIdx int) (ptr, val []int32) {
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

// Finalize precomputes the per-direction CSR execution plans that let
// propagate and propagateT run by output row. BuildAdjacency
// leaves the plan unset (the sequential per-graph reference path);
// NewBatch finalizes its merged adjacency. Finalize is idempotent and
// returns a for chaining.
func (a *Adjacency) Finalize() *Adjacency {
	if a.plans != nil {
		return a
	}
	plans := make([]csrPlan, NumDirections)
	for d := 0; d < NumDirections; d++ {
		p := &plans[d]
		p.dstPtr, p.dstSrc = buildCSR(a.NumNodes, a.Edges[d], 1, 0)
		p.srcPtr, p.srcDst = buildCSR(a.NumNodes, a.Edges[d], 0, 1)
	}
	a.plans = plans
	return a
}

// gatherRange computes out[i] = norm[i] · Σ_{src→i} h[src] for every
// node i in [lo, hi).
func gatherRange[T tensor.Float](p *csrPlan, norm []float64, h, out *tensor.MatrixOf[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := p.dstPtr[i], p.dstPtr[i+1]
		if start == end {
			continue
		}
		orow := out.Row(i)
		for _, s := range p.dstSrc[start:end] {
			for c, v := range h.Row(int(s)) {
				orow[c] += v
			}
		}
		w := T(norm[i])
		for c := range orow {
			orow[c] *= w
		}
	}
}

// gatherTRange computes out[i] += Σ_{i→dst} norm[dst] · h[dst] for every
// node i in [lo, hi) — the transpose of gatherRange, grouped by source.
func gatherTRange[T tensor.Float](p *csrPlan, norm []float64, h, out *tensor.MatrixOf[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := p.srcPtr[i], p.srcPtr[i+1]
		if start == end {
			continue
		}
		orow := out.Row(i)
		for _, dn := range p.srcDst[start:end] {
			w := T(norm[dn])
			for c, v := range h.Row(int(dn)) {
				orow[c] += w * v
			}
		}
	}
}

// Batch merges N program graphs into one block-diagonal adjacency so a
// single forward pass scores the whole minibatch: node i of graph g
// becomes row Offsets[g]+i of the batched feature matrix, per-relation
// edge lists concatenate with offset node IDs, and in-degree norms carry
// over unchanged (block-diagonal merging cannot create new in-edges).
type Batch struct {
	// Graphs holds the source graphs when the batch was built from raw
	// graphs (NewBatch); batches merged from compiled artifacts
	// (MergeCompiled) leave it nil and carry Tokens/Kinds instead.
	Graphs []*programl.Graph
	// Offsets has NumGraphs+1 entries; graph g owns feature rows
	// [Offsets[g], Offsets[g+1]).
	Offsets []int
	// Adj is the merged adjacency, finalized for row-split execution.
	Adj *Adjacency
	// Tokens and Kinds, when set, are the batch-wide embedding gather
	// arrays (node i of graph g at index Offsets[g]+i) — the compiled fast
	// path ForwardBatch uses instead of walking Graphs.
	Tokens []int32
	Kinds  []uint8
}

// NewBatch merges graphs into a batch. adjs may supply prebuilt per-graph
// adjacencies (index-aligned with graphs, e.g. from a cache); pass nil to
// build them here.
func NewBatch(graphs []*programl.Graph, adjs []*Adjacency) *Batch {
	if adjs != nil && len(adjs) != len(graphs) {
		panic(fmt.Sprintf("rgcn: %d adjacencies for %d graphs", len(adjs), len(graphs)))
	}
	b := &Batch{Graphs: graphs, Offsets: make([]int, len(graphs)+1)}
	total := 0
	for i, g := range graphs {
		b.Offsets[i] = total
		total += len(g.Nodes)
	}
	b.Offsets[len(graphs)] = total

	merged := &Adjacency{NumNodes: total}
	var nEdges [NumDirections]int
	for gi, g := range graphs {
		adj := adjFor(g, adjs, gi)
		for d := 0; d < NumDirections; d++ {
			nEdges[d] += len(adj.Edges[d])
		}
	}
	for d := 0; d < NumDirections; d++ {
		merged.Edges[d] = make([][2]int32, 0, nEdges[d])
		merged.Norm[d] = make([]float64, total)
	}
	for gi, g := range graphs {
		adj := adjFor(g, adjs, gi)
		off := int32(b.Offsets[gi])
		for d := 0; d < NumDirections; d++ {
			for _, e := range adj.Edges[d] {
				merged.Edges[d] = append(merged.Edges[d], [2]int32{e[0] + off, e[1] + off})
			}
			copy(merged.Norm[d][off:int(off)+adj.NumNodes], adj.Norm[d])
		}
	}
	b.Adj = merged.Finalize()
	return b
}

func adjFor(g *programl.Graph, adjs []*Adjacency, i int) *Adjacency {
	if adjs != nil && adjs[i] != nil {
		if adjs[i].NumNodes != len(g.Nodes) {
			panic(fmt.Sprintf("rgcn: adjacency %d has %d nodes, graph has %d",
				i, adjs[i].NumNodes, len(g.Nodes)))
		}
		return adjs[i]
	}
	return BuildAdjacency(g)
}

// NumGraphs returns the number of graphs in the batch.
func (b *Batch) NumGraphs() int { return len(b.Offsets) - 1 }

// NumNodes returns the total node count across the batch.
func (b *Batch) NumNodes() int { return b.Offsets[len(b.Offsets)-1] }

// Segment returns the feature-row range [lo, hi) of graph g.
func (b *Batch) Segment(g int) (lo, hi int) { return b.Offsets[g], b.Offsets[g+1] }

// ForwardBatch gathers embedding rows for every node of every graph in
// the batch; row Offsets[g]+i holds node i of graph g. The cached token
// list spans the whole batch, so the regular Backward scatters batched
// gradients into the table correctly. Compiled batches (Tokens set)
// gather straight from the flat token/kind arrays; both paths write into
// the embedding's reusable output buffer, which stays valid until the
// next Forward/ForwardBatch on this embedding.
func (e *EmbeddingOf[T]) ForwardBatch(b *Batch) *tensor.MatrixOf[T] {
	n := b.NumNodes()
	out := e.out.Get(n, e.Dim+3)
	e.tokens = growInts(e.tokens, n)
	if b.Tokens != nil {
		for i, t := range b.Tokens {
			tok := int(t)
			if tok >= e.VocabSize {
				tok = 0
			}
			e.tokens[i] = tok
			row := out.Row(i)
			copy(row[:e.Dim], e.Table.W.Row(tok))
			row[e.Dim], row[e.Dim+1], row[e.Dim+2] = 0, 0, 0
			row[e.Dim+int(b.Kinds[i])] = 1
		}
		return out
	}
	i := 0
	for _, g := range b.Graphs {
		for _, node := range g.Nodes {
			tok := node.Token
			if tok < 0 || tok >= e.VocabSize {
				tok = 0
			}
			e.tokens[i] = tok
			row := out.Row(i)
			copy(row[:e.Dim], e.Table.W.Row(tok))
			row[e.Dim], row[e.Dim+1], row[e.Dim+2] = 0, 0, 0
			row[e.Dim+int(node.Kind)] = 1
			i++
		}
	}
	return out
}

// growInts returns s resized to n, reusing its backing array when it fits.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
