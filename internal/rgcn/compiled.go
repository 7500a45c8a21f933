// Compile-once graph pipeline: a CompiledGraph is the per-graph artifact
// the whole training and serving stack reuses — embedding gather indices,
// node-kind tags, in-degree norms, and finalized per-relation CSR plans —
// built exactly once per graph and merged into block-diagonal minibatches
// by offset-copying the precompiled plans in O(edges), instead of
// re-concatenating edge lists and re-running CSR construction for every
// minibatch of every epoch. MergeCompiled is bit-identical to
// NewBatch-then-Finalize: concatenation preserves each destination's
// in-neighbour order, so the merged CSR arrays are the per-graph arrays
// with node and edge offsets added.
package rgcn

import (
	"math"

	"pnptuner/internal/programl"
)

// CompiledGraph is a graph compiled for the GNN: the finalized adjacency
// (CSR execution plans included) plus flat token and node-kind arrays for
// the embedding gather. Compile once, reuse for every epoch, fold, and
// prediction sweep — the artifact is immutable and safe to share across
// models and goroutines.
type CompiledGraph struct {
	// Adj is the graph's finalized adjacency (plans built).
	Adj *Adjacency
	// Tokens[i] is node i's embedding row. Tokens that int32 cannot hold,
	// and negative ones, clamp to 0 (the unknown token) at compile time;
	// tokens past a model's vocabulary clamp at gather time, since
	// vocabulary size is a model property.
	Tokens []int32
	// Kinds[i] is node i's one-hot kind-tag offset (0..2).
	Kinds []uint8
}

// CompileGraph builds the compile-once artifact for g: normalized
// adjacency, CSR plans, and the embedding gather arrays.
func CompileGraph(g *programl.Graph) *CompiledGraph {
	cg := &CompiledGraph{
		Adj:    BuildAdjacency(g).Finalize(),
		Tokens: make([]int32, len(g.Nodes)),
		Kinds:  make([]uint8, len(g.Nodes)),
	}
	for i, n := range g.Nodes {
		tok := n.Token
		if tok < 0 || tok > math.MaxInt32 {
			tok = 0
		}
		cg.Tokens[i] = int32(tok)
		cg.Kinds[i] = uint8(n.Kind)
	}
	return cg
}

// NumNodes returns the compiled graph's node count.
func (cg *CompiledGraph) NumNodes() int { return cg.Adj.NumNodes }

// i32buf is a growable int32 scratch slice for the merged CSR arrays.
type i32buf struct{ s []int32 }

func (b *i32buf) get(n int) []int32 {
	if cap(b.s) < n {
		b.s = make([]int32, n)
	}
	b.s = b.s[:n]
	return b.s
}

// Merger merges compiled graphs into block-diagonal batches with zero
// steady-state allocations: every merged array (offsets, tokens, kinds,
// norms, CSR plans) lives in buffers the Merger owns and grows to the
// largest batch seen. Each Merge invalidates the Batch returned by the
// previous Merge on the same Merger; a Merger is not goroutine-safe.
type Merger struct {
	batch   Batch
	adj     Adjacency
	plans   []csrPlan
	dstPtr  [NumDirections]i32buf
	dstSrc  [NumDirections]i32buf
	srcPtr  [NumDirections]i32buf
	srcDst  [NumDirections]i32buf
	norm    [NumDirections][]float64
	tokens  []int32
	kinds   []uint8
	offsets []int
}

// MergeCompiled merges compiled graphs into one block-diagonal Batch by
// offset-copying their precompiled CSR plans — O(total edges), no edge
// re-grouping, no re-finalization. The result is bit-identical to
// NewBatch over the same graphs. For repeated merging (training epochs,
// serving windows) use a Merger, which reuses its buffers across calls.
func MergeCompiled(cgs []*CompiledGraph) *Batch {
	return new(Merger).Merge(cgs)
}

// Merge merges compiled graphs into a block-diagonal Batch backed by the
// Merger's buffers. The Batch (and everything it references) is valid
// until the next Merge call.
func (mg *Merger) Merge(cgs []*CompiledGraph) *Batch {
	n := len(cgs)
	if cap(mg.offsets) < n+1 {
		mg.offsets = make([]int, n+1)
	}
	mg.offsets = mg.offsets[:n+1]
	total := 0
	for i, cg := range cgs {
		mg.offsets[i] = total
		total += cg.Adj.NumNodes
	}
	mg.offsets[n] = total

	// Embedding gather arrays.
	if cap(mg.tokens) < total {
		mg.tokens = make([]int32, total)
		mg.kinds = make([]uint8, total)
	}
	mg.tokens = mg.tokens[:total]
	mg.kinds = mg.kinds[:total]
	for i, cg := range cgs {
		off := mg.offsets[i]
		copy(mg.tokens[off:], cg.Tokens)
		copy(mg.kinds[off:], cg.Kinds)
	}

	// Merged CSR plans and norms: per direction, each graph's rowptr
	// shifts by the running edge base and its index array by the node
	// offset. Graph boundaries line up exactly (ptr[n] of one graph equals
	// ptr[0]+base of the next), so a single pass per graph suffices.
	if mg.plans == nil {
		mg.plans = make([]csrPlan, NumDirections)
	}
	for d := 0; d < NumDirections; d++ {
		nEdges := 0
		for _, cg := range cgs {
			nEdges += cg.Adj.plans[d].edgeCount()
		}
		dstPtr := mg.dstPtr[d].get(total + 1)
		dstSrc := mg.dstSrc[d].get(nEdges)
		srcPtr := mg.srcPtr[d].get(total + 1)
		srcDst := mg.srcDst[d].get(nEdges)
		if cap(mg.norm[d]) < total {
			mg.norm[d] = make([]float64, total)
		}
		mg.norm[d] = mg.norm[d][:total]

		base := int32(0)
		for gi, cg := range cgs {
			off := int32(mg.offsets[gi])
			p := &cg.Adj.plans[d]
			for i, v := range p.dstPtr {
				dstPtr[int(off)+i] = base + v
			}
			for i, v := range p.srcPtr {
				srcPtr[int(off)+i] = base + v
			}
			for i, v := range p.dstSrc {
				dstSrc[int(base)+i] = v + off
			}
			for i, v := range p.srcDst {
				srcDst[int(base)+i] = v + off
			}
			copy(mg.norm[d][off:int(off)+cg.Adj.NumNodes], cg.Adj.Norm[d])
			base += int32(p.edgeCount())
		}
		if total == 0 {
			dstPtr[0], srcPtr[0] = 0, 0
		}
		mg.plans[d] = csrPlan{dstPtr: dstPtr, dstSrc: dstSrc, srcPtr: srcPtr, srcDst: srcDst}
		mg.adj.Norm[d] = mg.norm[d]
		mg.adj.Edges[d] = nil // plans are authoritative for merged batches
	}
	mg.adj.NumNodes = total
	mg.adj.plans = mg.plans

	mg.batch = Batch{
		Offsets: mg.offsets,
		Adj:     &mg.adj,
		Tokens:  mg.tokens,
		Kinds:   mg.kinds,
	}
	return &mg.batch
}
