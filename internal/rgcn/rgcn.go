// Package rgcn implements Relational Graph Convolutional Network layers
// (Schlichtkrull et al., ESWC 2018) over PROGRAML program graphs, plus the
// token-embedding input layer and mean-pool readout that complete the
// graph-encoder half of the PnP tuner.
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

// Adjacency is the preprocessed message-passing structure of one graph:
// per relation-direction edge lists with in-degree normalization.
type Adjacency struct {
	NumNodes int
	// Edges[d] lists (src, dst) pairs for relation-direction d.
	Edges [NumDirections][][2]int32
	// Norm[d][i] is 1/indegree(i) under relation-direction d (0 if none).
	Norm [NumDirections][]float64

	// plans, when set by Finalize, holds per-direction CSR layouts that
	// let propagate/propagateT compute any range of output rows on its
	// own.
	plans []csrPlan
}

// BuildAdjacency converts a program graph into its normalized adjacency.
func BuildAdjacency(g *programl.Graph) *Adjacency {
	n := len(g.Nodes)
	a := &Adjacency{NumNodes: n}
	for d := 0; d < NumDirections; d++ {
		a.Norm[d] = make([]float64, n)
	}
	for _, e := range g.Edges {
		fwd := int(e.Rel)
		rev := int(e.Rel) + int(programl.NumRelations)
		a.Edges[fwd] = append(a.Edges[fwd], [2]int32{int32(e.Src), int32(e.Dst)})
		a.Norm[fwd][e.Dst]++
		a.Edges[rev] = append(a.Edges[rev], [2]int32{int32(e.Dst), int32(e.Src)})
		a.Norm[rev][e.Src]++
	}
	for d := 0; d < NumDirections; d++ {
		for i, deg := range a.Norm[d] {
			if deg > 0 {
				a.Norm[d][i] = 1 / deg
			}
		}
	}
	return a
}

// EdgeCount returns the number of edges of relation-direction d. Merged
// batches carry only CSR plans (no edge lists), so the plan is
// authoritative when present.
func (a *Adjacency) EdgeCount(d int) int {
	if a.plans != nil {
		return a.plans[d].edgeCount()
	}
	return len(a.Edges[d])
}

// propagate computes out = Â_d·h for one relation-direction. Finalized
// adjacencies gather through the CSR plan; unfinalized ones walk the edge
// list (the reference path).
func (a *Adjacency) propagate(d int, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(h.Rows, h.Cols)
	propagateRows(a, d, h, out, 0, out.Rows)
	return out
}

// propagateRows accumulates rows [lo, hi) of out += Â_d·h into a zeroed
// target — the buffer-reusing form of propagate on the forward hot path.
// Each norm is rounded to T before it multiplies. Only a finalized
// adjacency computes a part of out; the edge list scatters to any row,
// so an unfinalized one takes the whole range.
func propagateRows[T tensor.Float](a *Adjacency, d int, h, out *tensor.MatrixOf[T], lo, hi int) {
	if a.plans != nil {
		gatherRange(&a.plans[d], a.Norm[d], h, out, lo, hi)
		return
	}
	if lo != 0 || hi != out.Rows {
		panic(fmt.Sprintf("rgcn: rows [%d,%d) of %d on an unfinalized adjacency", lo, hi, out.Rows))
	}
	norm := a.Norm[d]
	for _, e := range a.Edges[d] {
		src, dst := e[0], e[1]
		w := T(norm[dst])
		hrow := h.Row(int(src))
		orow := out.Row(int(dst))
		for c, v := range hrow {
			orow[c] += w * v
		}
	}
}

// propagateT computes out = Â_dᵀ·h (the backward direction of propagate).
func (a *Adjacency) propagateT(d int, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(h.Rows, h.Cols)
	propagateTInto(a, d, h, out)
	return out
}

// propagateTInto accumulates out += Â_dᵀ·h, saving the temporary on the
// backward hot path.
func propagateTInto[T tensor.Float](a *Adjacency, d int, h, out *tensor.MatrixOf[T]) {
	if a.plans != nil {
		gatherTRange(&a.plans[d], a.Norm[d], h, out, 0, out.Rows)
		return
	}
	norm := a.Norm[d]
	for _, e := range a.Edges[d] {
		src, dst := e[0], e[1]
		w := T(norm[dst])
		hrow := h.Row(int(dst))
		orow := out.Row(int(src))
		for c, v := range hrow {
			orow[c] += w * v
		}
	}
}

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
// which Forward on a finalized adjacency splits its output rows across
// the tensor pool; below it the goroutine fan-out costs more than it
// wins. Each output row is computed the same way on either side of it,
// so it moves no bit.
const parallelThreshold = 1 << 16

// Forward computes the relational convolution for the bound graph. The
// returned matrix is owned by the layer and valid until the next Forward.
//
// This is the one fan-out in a forward pass: on a finalized adjacency
// above parallelThreshold the output rows split once across
// tensor.ParallelFor, and each worker runs the whole layer — self
// product, then each direction's gather and product — over its own rows
// (forwardRows). Every output element gets the same additions in the
// same order at every worker count. Below the gate, or with one worker,
// the rows run on the calling goroutine and nothing is allocated.
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
	if l.adj.plans == nil || x.Rows*x.Cols*l.Out < parallelThreshold || tensor.Workers() == 1 {
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
		clear(msg.Data[lo*msg.Cols : hi*msg.Cols])
		propagateRows(l.adj, d, x, msg, lo, hi)
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
		propagateTInto(l.adj, d, back, dx)
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

// Forward gathers embedding rows for the graph's node tokens and appends a
// 3-wide one-hot node-kind tag.
func (e *EmbeddingOf[T]) Forward(g *programl.Graph) *tensor.MatrixOf[T] {
	n := len(g.Nodes)
	out := tensor.NewOf[T](n, e.Dim+3)
	e.tokens = growInts(e.tokens, n)
	for i, node := range g.Nodes {
		tok := node.Token
		if tok < 0 || tok >= e.VocabSize {
			tok = 0
		}
		e.tokens[i] = tok
		copy(out.Row(i)[:e.Dim], e.Table.W.Row(tok))
		out.Row(i)[e.Dim+int(node.Kind)] = 1
	}
	return out
}

// OutDim returns the width of Forward's output.
func (e *EmbeddingOf[T]) OutDim() int { return e.Dim + 3 }

// Backward scatters ∂L/∂features into the table gradient. Large batches
// scatter in parallel with per-worker scratch tables.
func (e *EmbeddingOf[T]) Backward(dout *tensor.MatrixOf[T]) {
	tensor.ScatterAddRows(e.Table.Grad, e.tokens, dout, e.Dim)
}

// Params returns the embedding table.
func (e *EmbeddingOf[T]) Params() []*nn.ParamOf[T] { return []*nn.ParamOf[T]{e.Table} }

// MeanPoolOf is the graph-level readout: the mean of node features.
type MeanPoolOf[T tensor.Float] struct{ rows int }

// MeanPool is the float64 readout.
type MeanPool = MeanPoolOf[float64]

// Forward returns the 1×d mean of node features.
func (m *MeanPoolOf[T]) Forward(x *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	m.rows = x.Rows
	return x.MeanRow()
}

// Backward broadcasts the pooled gradient back to every node.
func (m *MeanPoolOf[T]) Backward(dout *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	dx := tensor.NewOf[T](m.rows, dout.Cols)
	inv := 1 / T(m.rows)
	for r := 0; r < m.rows; r++ {
		row := dx.Row(r)
		for c, v := range dout.Row(0) {
			row[c] = v * inv
		}
	}
	return dx
}
