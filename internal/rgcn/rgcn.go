// Package rgcn implements Relational Graph Convolutional Network layers
// (Schlichtkrull et al., ESWC 2018) over PROGRAML program graphs, plus the
// token-embedding input layer, for the graph-encoder half of the PnP
// tuner.
//
// A graph reaches the layers one way: CompileGraph builds its CSR plans,
// norms and embedding gather arrays once, a Merger merges compiled graphs
// into one block-diagonal Batch, and EmbeddingOf.ForwardBatch and
// LayerOf.Forward run over that Batch. A single graph is a one-graph
// batch.
//
// Each RGCN layer computes
//
//	H' = H·W_self + Σ_d Â_d·H·W_d + b
//
// where d ranges over every (relation, direction) pair — control, data and
// call flow, each in both edge directions, matching the paper's
// "relation specific transformations annotated by the type and direction
// of edges" — and Â_d is the in-degree-normalized adjacency.
package rgcn

import (
	"fmt"

	"pnptuner/internal/nn"
	"pnptuner/internal/programl"
	"pnptuner/internal/tensor"
)

// NumDirections is the number of adjacency blocks per graph: each relation
// appears forward and reversed.
const NumDirections = 2 * int(programl.NumRelations)

// Adjacency is the compiled message-passing structure of one graph or of
// a merged batch: per relation-direction CSR plans and in-degree norms.
type Adjacency struct {
	NumNodes int
	// Norm[d][i] is 1/indegree(i) under relation-direction d (0 if none).
	Norm [NumDirections][]float64

	// plans holds per-direction CSR layouts that let the forward gather
	// and its backward transpose compute any range of output rows on
	// their own.
	plans [NumDirections]csrPlan
}

// BuildAdjacency compiles a program graph into its normalized adjacency
// straight from g.Edges: count each direction's in-edges per node,
// prefix-sum the counts into row pointers, then fill the neighbour lists
// in edge order. Relation r runs forward as direction r and reversed as
// direction r+NumRelations, so each direction's transpose layout (grouped
// by source) is its mirror's gather layout, and the two share arrays.
func BuildAdjacency(g *programl.Graph) *Adjacency {
	const nRel = int(programl.NumRelations)
	n := len(g.Nodes)
	a := &Adjacency{NumNodes: n}
	var count [nRel]int
	for _, e := range g.Edges {
		count[e.Rel]++
	}
	for d := range a.plans {
		a.plans[d].dstPtr = make([]int32, n+1)
		a.plans[d].dstSrc = make([]int32, count[d%nRel])
	}
	for _, e := range g.Edges {
		a.plans[e.Rel].dstPtr[e.Dst+1]++
		a.plans[int(e.Rel)+nRel].dstPtr[e.Src+1]++
	}
	for d := range a.plans {
		ptr := a.plans[d].dstPtr
		for i := 0; i < n; i++ {
			ptr[i+1] += ptr[i]
		}
	}
	// Each fill advances dstPtr[i], node i's cursor, from the start of its
	// list to its end, which is where node i+1's starts; the copy below
	// shifts the pointers back into place.
	for _, e := range g.Edges {
		fwd, rev := &a.plans[e.Rel], &a.plans[int(e.Rel)+nRel]
		fwd.dstSrc[fwd.dstPtr[e.Dst]] = int32(e.Src)
		fwd.dstPtr[e.Dst]++
		rev.dstSrc[rev.dstPtr[e.Src]] = int32(e.Dst)
		rev.dstPtr[e.Src]++
	}
	for d := range a.plans {
		ptr := a.plans[d].dstPtr
		copy(ptr[1:], ptr[:n])
		ptr[0] = 0
		a.Norm[d] = make([]float64, n)
		for i := range a.Norm[d] {
			if deg := ptr[i+1] - ptr[i]; deg > 0 {
				a.Norm[d][i] = 1 / float64(deg)
			}
		}
	}
	for d := range a.plans {
		mirror := &a.plans[(d+nRel)%NumDirections]
		a.plans[d].srcPtr, a.plans[d].srcDst = mirror.dstPtr, mirror.dstSrc
	}
	return a
}

// EdgeCount returns the number of edges of relation-direction d.
func (a *Adjacency) EdgeCount(d int) int { return a.plans[d].edgeCount() }

// LayerOf is one relational graph convolution over features of T. It is
// graph-dependent: the caller sets the adjacency (SetGraph) before
// Forward/Backward, which lets one parameter set serve every graph in the
// corpus.
type LayerOf[T tensor.Float] struct {
	In, Out int
	WSelf   *nn.ParamOf[T]
	WRel    [NumDirections]*nn.ParamOf[T]
	Bias    *nn.ParamOf[T]

	adj *Adjacency
	// caches for backward
	x    *tensor.MatrixOf[T]
	msgs [NumDirections]*tensor.MatrixOf[T]

	// Epoch-persistent scratch: each activation the layer produces lives
	// in a buffer that grows to the largest minibatch seen, so steady-state
	// forward/backward passes allocate nothing. Outputs are valid until
	// the next Forward/Backward on this layer.
	outBuf  tensor.BufOf[T]
	msgBufs [NumDirections]tensor.BufOf[T]
	dxBuf   tensor.BufOf[T]
	backBuf tensor.BufOf[T]
	colSums []T
}

// Layer is the float64 relational convolution that training runs.
type Layer = LayerOf[float64]

// NewLayer builds an RGCN layer with Xavier-initialized transforms.
func NewLayer(name string, in, out int, rng *tensor.RNG) *Layer {
	l := &Layer{
		In: in, Out: out,
		WSelf: nn.NewParam(name+".self", in, out),
		Bias:  nn.NewParam(name+".bias", 1, out),
	}
	l.WSelf.W.XavierInit(rng, in, out)
	for d := 0; d < NumDirections; d++ {
		l.WRel[d] = nn.NewParam(fmt.Sprintf("%s.rel%d", name, d), in, out)
		l.WRel[d].W.XavierInit(rng, in, out)
	}
	return l
}

// ConvertLayer returns a forward-only copy of l with its weights at
// precision T.
func ConvertLayer[T tensor.Float](l *Layer) *LayerOf[T] {
	q := &LayerOf[T]{In: l.In, Out: l.Out, WSelf: nn.ConvertParam[T](l.WSelf), Bias: nn.ConvertParam[T](l.Bias)}
	for d := range l.WRel {
		q.WRel[d] = nn.ConvertParam[T](l.WRel[d])
	}
	return q
}

// SetGraph binds the layer to one graph's adjacency for the next
// forward/backward pair.
func (l *LayerOf[T]) SetGraph(adj *Adjacency) { l.adj = adj }

// parallelThreshold is the self product's volume (rows × In × Out) from
// which Forward splits its output rows across the tensor pool; below it
// the goroutine fan-out costs more than it wins. Each output row is
// computed the same way on either side of it, so it moves no bit.
const parallelThreshold = 1 << 16

// Forward computes the relational convolution for the bound graph. The
// returned matrix is owned by the layer and valid until the next Forward.
//
// This is the one fan-out in a forward pass: above parallelThreshold the
// output rows split once across tensor.ParallelFor, and each worker runs
// the whole layer — self product, then each direction's gather and
// product — over its own rows (forwardRows). Every output element gets
// the same additions in the same order at every worker count. Below the
// gate, or with one worker, the rows run on the calling goroutine and
// nothing is allocated.
func (l *LayerOf[T]) Forward(x *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	if l.adj == nil {
		panic("rgcn: Forward before SetGraph")
	}
	if x.Rows != l.adj.NumNodes {
		panic(fmt.Sprintf("rgcn: %d feature rows for %d nodes", x.Rows, l.adj.NumNodes))
	}
	l.x = x
	out := l.outBuf.Get(x.Rows, l.Out)
	for d := 0; d < NumDirections; d++ {
		l.msgs[d] = nil
		if l.adj.EdgeCount(d) > 0 {
			l.msgs[d] = l.msgBufs[d].Get(x.Rows, x.Cols)
		}
	}
	if x.Rows*x.Cols*l.Out < parallelThreshold || tensor.Workers() == 1 {
		l.forwardRows(x, out, 0, x.Rows)
	} else {
		tensor.ParallelFor(x.Rows, func(lo, hi int) { l.forwardRows(x, out, lo, hi) })
	}
	out.AddRowVec(l.Bias.W.Data)
	return out
}

// forwardRows computes rows [lo, hi) of the layer's output before the
// bias, and of each direction's message, writing no other row.
func (l *LayerOf[T]) forwardRows(x, out *tensor.MatrixOf[T], lo, hi int) {
	clear(out.Data[lo*out.Cols : hi*out.Cols])
	tensor.MatMulAddRows(x, l.WSelf.W, out, lo, hi)
	for d, msg := range l.msgs {
		if msg == nil {
			continue
		}
		p := &l.adj.plans[d]
		tensor.GatherRows(p.dstPtr, p.dstSrc, l.adj.Norm[d], x, msg, lo, hi)
		tensor.MatMulAddRows(msg, l.WRel[d].W, out, lo, hi)
	}
}

// Backward accumulates parameter gradients and returns ∂L/∂x. The
// returned gradient is owned by the layer and valid until the next
// Backward.
func (l *LayerOf[T]) Backward(dout *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	// Bias gradient.
	if l.colSums == nil {
		l.colSums = make([]T, l.Out)
	}
	dout.ColSumsInto(l.colSums)
	for c, v := range l.colSums {
		l.Bias.Grad.Data[c] += v
	}
	// Self transform.
	tensor.MatMulTAAddInto(l.x, dout, l.WSelf.Grad)
	dx := l.dxBuf.Get(dout.Rows, l.In)
	tensor.MatMulTBInto(dout, l.WSelf.W, dx)
	// Relational transforms.
	for d := 0; d < NumDirections; d++ {
		if l.msgs[d] == nil {
			continue
		}
		tensor.MatMulTAAddInto(l.msgs[d], dout, l.WRel[d].Grad)
		// ∂L/∂x += Â_dᵀ·(dout·W_dᵀ)
		back := l.backBuf.Get(dout.Rows, l.In)
		tensor.MatMulTBInto(dout, l.WRel[d].W, back)
		gatherTRange(&l.adj.plans[d], l.adj.Norm[d], back, dx, 0, dx.Rows)
	}
	return dx
}

// Params returns all transforms and the bias.
func (l *LayerOf[T]) Params() []*nn.ParamOf[T] {
	out := []*nn.ParamOf[T]{l.WSelf}
	for d := 0; d < NumDirections; d++ {
		out = append(out, l.WRel[d])
	}
	return append(out, l.Bias)
}

// EmbeddingOf maps node tokens (plus a node-kind tag) to dense features
// of T.
type EmbeddingOf[T tensor.Float] struct {
	VocabSize, Dim int
	Table          *nn.ParamOf[T]
	tokens         []int
	// out is the reusable gather target for ForwardBatch.
	out tensor.BufOf[T]
}

// Embedding is the float64 token embedding that training runs.
type Embedding = EmbeddingOf[float64]

// NewEmbedding builds a learnable token-embedding table.
func NewEmbedding(name string, vocabSize, dim int, rng *tensor.RNG) *Embedding {
	e := &Embedding{VocabSize: vocabSize, Dim: dim, Table: nn.NewParam(name+".table", vocabSize, dim)}
	e.Table.W.FillUniform(rng, 0.25)
	return e
}

// ConvertEmbedding returns a forward-only copy of e with its table at
// precision T.
func ConvertEmbedding[T tensor.Float](e *Embedding) *EmbeddingOf[T] {
	return &EmbeddingOf[T]{VocabSize: e.VocabSize, Dim: e.Dim, Table: nn.ConvertParam[T](e.Table)}
}

// OutDim returns the width of ForwardBatch's output.
func (e *EmbeddingOf[T]) OutDim() int { return e.Dim + 3 }

// Backward scatters ∂L/∂features into the table gradient. Large batches
// scatter in parallel with per-worker scratch tables.
func (e *EmbeddingOf[T]) Backward(dout *tensor.MatrixOf[T]) {
	tensor.ScatterAddRows(e.Table.Grad, e.tokens, dout, e.Dim)
}

// Params returns the embedding table.
func (e *EmbeddingOf[T]) Params() []*nn.ParamOf[T] { return []*nn.ParamOf[T]{e.Table} }
