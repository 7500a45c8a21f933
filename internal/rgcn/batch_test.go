package rgcn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pnptuner/internal/programl"
	"pnptuner/internal/tensor"
)

// randomGraph builds a connected-ish random graph with all relations.
func randomGraph(rng *tensor.RNG, id string) *programl.Graph {
	return sizedGraph(rng, id, 3+rng.Intn(40))
}

// sizedGraph builds a random graph of n nodes with all relations.
func sizedGraph(rng *tensor.RNG, id string, n int) *programl.Graph {
	g := &programl.Graph{RegionID: id}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, programl.Node{
			Kind:  programl.NodeKind(rng.Intn(3)),
			Token: rng.Intn(50),
		})
	}
	nEdges := n + rng.Intn(3*n)
	for i := 0; i < nEdges; i++ {
		g.Edges = append(g.Edges, programl.Edge{
			Src: rng.Intn(n),
			Dst: rng.Intn(n),
			Rel: programl.Relation(rng.Intn(int(programl.NumRelations))),
		})
	}
	return g
}

// batchOfRows merges random graphs into a batch of exactly rows nodes.
func batchOfRows(rng *tensor.RNG, rows int) *Batch {
	var graphs []*programl.Graph
	for left := rows; left > 0; {
		n := min(left, 3+rng.Intn(40))
		graphs = append(graphs, sizedGraph(rng, fmt.Sprintf("g%d", len(graphs)), n))
		left -= n
	}
	return MergeCompiled(compileAll(graphs))
}

// edgeCaseGraphs are the CSR builder's corner inputs: no nodes, nodes
// without edges, self-loops, duplicate edges, and a single relation.
func edgeCaseGraphs() []*programl.Graph {
	nodes := func(n int) []programl.Node {
		out := make([]programl.Node, n)
		for i := range out {
			out[i] = programl.Node{Kind: programl.NodeKind(i % 3), Token: 1 + i}
		}
		return out
	}
	return []*programl.Graph{
		{RegionID: "no-nodes"},
		{RegionID: "no-edges", Nodes: nodes(4)},
		{RegionID: "self-loops", Nodes: nodes(3), Edges: []programl.Edge{
			{Src: 0, Dst: 0, Rel: programl.RelControl},
			{Src: 1, Dst: 1, Rel: programl.RelData},
			{Src: 2, Dst: 2, Rel: programl.RelCall},
			{Src: 0, Dst: 1, Rel: programl.RelControl},
			{Src: 1, Dst: 1, Rel: programl.RelControl},
		}},
		{RegionID: "duplicates", Nodes: nodes(3), Edges: []programl.Edge{
			{Src: 0, Dst: 1, Rel: programl.RelData},
			{Src: 2, Dst: 1, Rel: programl.RelData},
			{Src: 0, Dst: 1, Rel: programl.RelData},
			{Src: 1, Dst: 0, Rel: programl.RelData},
			{Src: 0, Dst: 1, Rel: programl.RelData},
			{Src: 1, Dst: 0, Rel: programl.RelCall},
		}},
		{RegionID: "one-relation", Nodes: nodes(5), Edges: []programl.Edge{
			{Src: 0, Dst: 4, Rel: programl.RelCall},
			{Src: 4, Dst: 1, Rel: programl.RelCall},
			{Src: 3, Dst: 4, Rel: programl.RelCall},
			{Src: 2, Dst: 2, Rel: programl.RelCall},
		}},
	}
}

// propagate runs the layers' CSR gather over every row: out = Â_d·h.
func propagate(a *Adjacency, d int, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(h.Rows, h.Cols)
	p := &a.plans[d]
	tensor.GatherRows(p.dstPtr, p.dstSrc, a.Norm[d], h, out, 0, out.Rows)
	return out
}

// propagateT runs the layers' CSR transpose over every row: out = Â_dᵀ·h.
func propagateT(a *Adjacency, d int, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(h.Rows, h.Cols)
	gatherTRange(&a.plans[d], a.Norm[d], h, out, 0, out.Rows)
	return out
}

// gateRows is the smallest row count at which a layer of l's width
// splits its forward rows across the pool.
func gateRows[T tensor.Float](l *LayerOf[T]) int {
	return (parallelThreshold + l.In*l.Out - 1) / (l.In * l.Out)
}

// poison fills out and every non-nil message with NaN.
func poison[T tensor.Float](out *tensor.MatrixOf[T], msgs []*tensor.MatrixOf[T]) {
	nan := T(math.NaN())
	for _, m := range append(msgs, out) {
		if m != nil {
			for i := range m.Data {
				m.Data[i] = nan
			}
		}
	}
}

func maxAbsDiff(a, b *tensor.Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestFinalizedPropagateMatchesReference checks that the CSR plans
// BuildAdjacency compiles produce the same message passing as the
// reference's per-edge scatter, on random graphs and on the builder's
// corner cases.
func TestFinalizedPropagateMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(11)
	graphs := edgeCaseGraphs()
	for trial := 0; trial < 20; trial++ {
		graphs = append(graphs, randomGraph(rng, "p"))
	}
	for _, g := range graphs {
		ref := refBuild(g)
		fin := BuildAdjacency(g)
		h := tensor.New(len(g.Nodes), 7)
		h.FillUniform(rng, 1)
		for d := 0; d < NumDirections; d++ {
			if diff := maxAbsDiff(ref.propagate(d, h), propagate(fin, d, h)); diff > 1e-9 {
				t.Fatalf("%s dir %d: propagate diff %g", g.RegionID, d, diff)
			}
			if diff := maxAbsDiff(ref.propagateT(d, h), propagateT(fin, d, h)); diff > 1e-9 {
				t.Fatalf("%s dir %d: propagateT diff %g", g.RegionID, d, diff)
			}
		}
	}
}

// TestBatchForwardMatchesPerGraph is the core parity guarantee: one
// block-diagonal batched forward equals N one-graph batch forwards
// within 1e-9.
func TestBatchForwardMatchesPerGraph(t *testing.T) {
	rng := tensor.NewRNG(22)
	var graphs []*programl.Graph
	for i := 0; i < 9; i++ {
		graphs = append(graphs, randomGraph(rng, fmt.Sprintf("g%d", i)))
	}
	emb := NewEmbedding("e", 50, 12, tensor.NewRNG(5))
	layer := NewLayer("l", emb.OutDim(), 16, tensor.NewRNG(6))

	cgs := compileAll(graphs)
	batch := MergeCompiled(cgs)
	hb := emb.ForwardBatch(batch)
	layer.SetGraph(batch.Adj)
	// Forward results live in layer-owned buffers, so snapshot the batched
	// output before running the one-graph passes.
	outBatch := layer.Forward(hb).Clone()

	for gi, cg := range cgs {
		one := MergeCompiled([]*CompiledGraph{cg})
		h := emb.ForwardBatch(one)
		layer.SetGraph(one.Adj)
		out := layer.Forward(h)
		lo, hi := batch.Segment(gi)
		if hi-lo != out.Rows {
			t.Fatalf("graph %d: segment %d rows, forward %d", gi, hi-lo, out.Rows)
		}
		for r := 0; r < out.Rows; r++ {
			for c := 0; c < out.Cols; c++ {
				if d := math.Abs(out.At(r, c) - outBatch.At(lo+r, c)); d > 1e-9 {
					t.Fatalf("graph %d node %d col %d: batched %g vs one-graph %g",
						gi, r, c, outBatch.At(lo+r, c), out.At(r, c))
				}
			}
		}
	}
}

// TestBatchBackwardMatchesPerGraph checks gradient parity: the batched
// backward accumulates the same parameter gradients as N one-graph batch
// backwards.
func TestBatchBackwardMatchesPerGraph(t *testing.T) {
	rng := tensor.NewRNG(33)
	var graphs []*programl.Graph
	for i := 0; i < 6; i++ {
		graphs = append(graphs, randomGraph(rng, fmt.Sprintf("g%d", i)))
	}
	const dim, hidden = 10, 8
	embA := NewEmbedding("e", 50, dim, tensor.NewRNG(5))
	embB := NewEmbedding("e", 50, dim, tensor.NewRNG(5))
	layA := NewLayer("l", embA.OutDim(), hidden, tensor.NewRNG(6))
	layB := NewLayer("l", embB.OutDim(), hidden, tensor.NewRNG(6))

	cgs := compileAll(graphs)
	batch := MergeCompiled(cgs)
	dout := tensor.New(batch.NumNodes(), hidden)
	dout.FillUniform(rng, 1)

	// One-graph reference: forward+backward each graph, grads accumulate.
	for gi, cg := range cgs {
		one := MergeCompiled([]*CompiledGraph{cg})
		h := embA.ForwardBatch(one)
		layA.SetGraph(one.Adj)
		layA.Forward(h)
		lo, hi := batch.Segment(gi)
		dg := tensor.New(hi-lo, hidden)
		for r := lo; r < hi; r++ {
			copy(dg.Row(r-lo), dout.Row(r))
		}
		embA.Backward(layA.Backward(dg))
	}

	// Batched: one pass.
	hb := embB.ForwardBatch(batch)
	layB.SetGraph(batch.Adj)
	layB.Forward(hb)
	embB.Backward(layB.Backward(dout))

	pa, pb := append(layA.Params(), embA.Params()...), append(layB.Params(), embB.Params()...)
	for i := range pa {
		if diff := maxAbsDiff(pa[i].Grad, pb[i].Grad); diff > 1e-9 {
			t.Fatalf("%s: grad diff %g between one-graph and batched", pa[i].Name, diff)
		}
	}
}

// TestBatchParallelRace drives the batched forward/backward on a batch
// sized above parallelThreshold with GOMAXPROCS raised, so the layer
// forward's row split runs and `go test -race` sees its workers write
// their own rows of the output and of every message.
func TestBatchParallelRace(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)

	emb := NewEmbedding("e", 50, 12, tensor.NewRNG(5))
	layer := NewLayer("l", emb.OutDim(), 16, tensor.NewRNG(6))
	batch := batchOfRows(tensor.NewRNG(44), 2*gateRows(layer))

	for iter := 0; iter < 3; iter++ {
		h := emb.ForwardBatch(batch)
		layer.SetGraph(batch.Adj)
		out := layer.Forward(h)
		emb.Backward(layer.Backward(out))
	}
}

// TestBatchParallelDeterministic checks that the row split does not
// change results: on a batch above parallelThreshold the forward must be
// bit-identical across runs and GOMAXPROCS settings, because every output
// row is owned by exactly one worker.
func TestBatchParallelDeterministic(t *testing.T) {
	emb := NewEmbedding("e", 50, 12, tensor.NewRNG(5))
	layer := NewLayer("l", emb.OutDim(), 16, tensor.NewRNG(6))
	batch := batchOfRows(tensor.NewRNG(55), 3*gateRows(layer))

	run := func() *tensor.Matrix {
		h := emb.ForwardBatch(batch)
		layer.SetGraph(batch.Adj)
		return layer.Forward(h).Clone()
	}
	ref := run()
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		got := run()
		runtime.GOMAXPROCS(old)
		for i := range ref.Data {
			if ref.Data[i] != got.Data[i] {
				t.Fatalf("GOMAXPROCS=%d: element %d differs: %g vs %g",
					procs, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

// TestLayerRowSplitBitExact holds the layer forward's row split to the
// one-goroutine pass bit for bit, at both precisions: on merged
// batches one row below, at and above the split gate and well above it,
// the output at GOMAXPROCS 1, 2, 3 and 8 must match SetWorkerCap(1)'s,
// and so must the relational weight gradients of a following Backward,
// which read every message row the split wrote.
func TestLayerRowSplitBitExact(t *testing.T) {
	emb := NewEmbedding("e", 50, 12, tensor.NewRNG(5))
	layer := NewLayer("l", emb.OutDim(), 16, tensor.NewRNG(6))
	layer32 := ConvertLayer[float32](layer)
	gate := gateRows(layer)
	rng := tensor.NewRNG(77)
	for _, rows := range []int{gate - 1, gate, gate + 1, 1100} {
		batch := batchOfRows(rng, rows)
		x := emb.ForwardBatch(batch).Clone()
		x32 := tensor.Convert[float32](x)
		dout := tensor.New(rows, layer.Out)
		dout.FillUniform(rng, 1)
		run := func() (out, grads *tensor.Matrix, out32 *tensor.MatrixOf[float32]) {
			layer.SetGraph(batch.Adj)
			layer32.SetGraph(batch.Adj)
			fwd, fwd32 := layer.Forward(x), layer32.Forward(x32)
			out, out32 = fwd.Clone(), fwd32.Clone()
			for _, p := range layer.Params() {
				p.ZeroGrad()
			}
			layer.Backward(dout)
			grads = tensor.New(NumDirections, layer.In*layer.Out)
			for d, p := range layer.WRel {
				copy(grads.Row(d), p.Grad.Data)
			}
			// Poison the layers' buffers, so a row the next pass fails
			// to write cannot pass with this pass's value.
			poison(fwd, layer.msgs[:])
			poison(fwd32, layer32.msgs[:])
			return out, grads, out32
		}
		restore := tensor.SetWorkerCap(1)
		want, wantGrads, want32 := run()
		restore()
		for _, procs := range []int{1, 2, 3, 8} {
			old := runtime.GOMAXPROCS(procs)
			got, gotGrads, got32 := run()
			runtime.GOMAXPROCS(old)
			for i, w := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
					t.Fatalf("%d rows, GOMAXPROCS=%d: float64 output [%d] = %v, want %v", rows, procs, i, got.Data[i], w)
				}
			}
			for i, w := range wantGrads.Data {
				if math.Float64bits(gotGrads.Data[i]) != math.Float64bits(w) {
					t.Fatalf("%d rows, GOMAXPROCS=%d: relational grad [%d] = %v, want %v", rows, procs, i, gotGrads.Data[i], w)
				}
			}
			for i, w := range want32.Data {
				if math.Float32bits(got32.Data[i]) != math.Float32bits(w) {
					t.Fatalf("%d rows, GOMAXPROCS=%d: float32 output [%d] = %v, want %v", rows, procs, i, got32.Data[i], w)
				}
			}
		}
	}
}

func ExampleBuildAdjacency() {
	g := &programl.Graph{
		RegionID: "example",
		Nodes: []programl.Node{
			{Kind: programl.KindInstruction, Token: 1},
			{Kind: programl.KindInstruction, Token: 2},
			{Kind: programl.KindVariable, Token: 3},
		},
		Edges: []programl.Edge{
			{Src: 0, Dst: 1, Rel: programl.RelControl},
			{Src: 2, Dst: 1, Rel: programl.RelData},
		},
	}
	adj := BuildAdjacency(g)
	fmt.Println("nodes:", adj.NumNodes)
	fmt.Println("control edges:", adj.EdgeCount(int(programl.RelControl)))
	// Node 1 has one incoming control and one incoming data edge, each
	// normalized by its per-relation in-degree.
	fmt.Println("control norm of node 1:", adj.Norm[programl.RelControl][1])
	// Output:
	// nodes: 3
	// control edges: 1
	// control norm of node 1: 1
}

func ExampleNewBatch() {
	a := &programl.Graph{
		RegionID: "a",
		Nodes:    []programl.Node{{Token: 1}, {Token: 2}},
		Edges:    []programl.Edge{{Src: 0, Dst: 1, Rel: programl.RelControl}},
	}
	b := &programl.Graph{
		RegionID: "b",
		Nodes:    []programl.Node{{Token: 3}, {Token: 4}, {Token: 5}},
		Edges:    []programl.Edge{{Src: 1, Dst: 2, Rel: programl.RelData}},
	}
	batch := NewBatch([]*programl.Graph{a, b})
	fmt.Println("graphs:", batch.NumGraphs())
	fmt.Println("total nodes:", batch.NumNodes())
	lo, hi := batch.Segment(1)
	fmt.Printf("graph b owns rows [%d, %d)\n", lo, hi)
	// The merged adjacency is block-diagonal: b's data edge 1 -> 2 lands
	// at offset 2, so node 4's one data in-neighbour is node 3.
	p := &batch.Adj.plans[programl.RelData]
	fmt.Println("data in-neighbours of node 4:", p.dstSrc[p.dstPtr[4]:p.dstPtr[5]])
	// Output:
	// graphs: 2
	// total nodes: 5
	// graph b owns rows [2, 5)
	// data in-neighbours of node 4: [3]
}
