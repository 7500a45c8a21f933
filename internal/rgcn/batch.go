// Block-diagonal batches and the CSR plans they run on. N compiled graphs
// merge into one Batch (offset node IDs, concatenated plans and norms) so
// a single forward pass scores a whole minibatch. Each
// relation-direction's plan groups its edges by output row, so any range
// of output rows can be gathered on its own. That is what lets
// LayerOf.Forward split a large batch's rows across the tensor pool once
// per layer.
package rgcn

import "pnptuner/internal/tensor"

// csrPlan is one relation-direction's edges regrouped by output row: by
// destination for the forward gather (gatherRange) and by source for the
// backward transpose (gatherTRange). Each output row reads only its own
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

// Batch is N compiled graphs merged into one block-diagonal adjacency so
// a single forward pass scores the whole minibatch: node i of graph g
// becomes row Offsets[g]+i of the batched feature matrix, each graph's
// plans carry over with offset node IDs, and in-degree norms carry over
// unchanged (block-diagonal merging cannot create new in-edges).
type Batch struct {
	// Offsets has NumGraphs+1 entries; graph g owns feature rows
	// [Offsets[g], Offsets[g+1]).
	Offsets []int
	// Adj is the merged adjacency.
	Adj *Adjacency
	// Tokens and Kinds are the batch-wide embedding gather arrays (node i
	// of graph g at index Offsets[g]+i).
	Tokens []int32
	Kinds  []uint8
}

// NumGraphs returns the number of graphs in the batch.
func (b *Batch) NumGraphs() int { return len(b.Offsets) - 1 }

// NumNodes returns the total node count across the batch.
func (b *Batch) NumNodes() int { return b.Offsets[len(b.Offsets)-1] }

// Segment returns the feature-row range [lo, hi) of graph g.
func (b *Batch) Segment(g int) (lo, hi int) { return b.Offsets[g], b.Offsets[g+1] }

// ForwardBatch gathers embedding rows for every node of every graph in
// the batch; row Offsets[g]+i holds node i of graph g, its table row
// followed by a 3-wide one-hot node-kind tag. The cached token list spans
// the whole batch, so Backward scatters batched gradients into the table
// correctly. The result lives in the embedding's reusable output buffer,
// valid until the next ForwardBatch on this embedding.
func (e *EmbeddingOf[T]) ForwardBatch(b *Batch) *tensor.MatrixOf[T] {
	n := b.NumNodes()
	out := e.out.Get(n, e.Dim+3)
	e.tokens = growInts(e.tokens, n)
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

// growInts returns s resized to n, reusing its backing array when it fits.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
