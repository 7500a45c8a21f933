package rgcn

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"pnptuner/internal/nn"
	"pnptuner/internal/programl"
	"pnptuner/internal/tensor"
)

// toyGraph builds a small graph with all three relations.
func toyGraph() *programl.Graph {
	return &programl.Graph{
		RegionID: "toy",
		Nodes: []programl.Node{
			{Kind: programl.KindInstruction, Text: "a", Token: 1},
			{Kind: programl.KindInstruction, Text: "b", Token: 2},
			{Kind: programl.KindVariable, Text: "v", Token: 3},
			{Kind: programl.KindConstant, Text: "c", Token: 4},
			{Kind: programl.KindInstruction, Text: "d", Token: 5},
		},
		Edges: []programl.Edge{
			{Src: 0, Dst: 1, Rel: programl.RelControl},
			{Src: 1, Dst: 4, Rel: programl.RelControl},
			{Src: 4, Dst: 0, Rel: programl.RelControl},
			{Src: 2, Dst: 0, Rel: programl.RelData},
			{Src: 3, Dst: 1, Rel: programl.RelData},
			{Src: 1, Dst: 2, Rel: programl.RelData},
			{Src: 0, Dst: 4, Rel: programl.RelCall},
			{Src: 4, Dst: 0, Rel: programl.RelCall},
		},
	}
}

func TestAdjacencyNormalization(t *testing.T) {
	adj := BuildAdjacency(toyGraph())
	if adj.NumNodes != 5 {
		t.Fatalf("nodes = %d", adj.NumNodes)
	}
	// Every normalization weight must satisfy: sum over incoming edges of
	// norm[dst] == 1 for nodes with in-degree > 0. The reference lists
	// the incoming edges.
	ref := refBuild(toyGraph())
	for d := 0; d < NumDirections; d++ {
		sums := make([]float64, adj.NumNodes)
		for _, e := range ref.edges[d] {
			sums[e[1]] += adj.Norm[d][e[1]]
		}
		for i, s := range sums {
			if s != 0 && math.Abs(s-1) > 1e-12 {
				t.Fatalf("dir %d node %d: norm sum %g", d, i, s)
			}
		}
	}
}

func TestAdjacencyReverseMirrorsForward(t *testing.T) {
	const nRel = int(programl.NumRelations)
	// The toy graph, then again with a self-loop and a duplicate edge.
	multi := toyGraph()
	multi.Edges = append(multi.Edges,
		programl.Edge{Src: 2, Dst: 2, Rel: programl.RelData},
		programl.Edge{Src: 0, Dst: 1, Rel: programl.RelControl})
	for _, g := range []*programl.Graph{toyGraph(), multi} {
		adj, ref := BuildAdjacency(g), refBuild(g)
		for r := 0; r < nRel; r++ {
			// The reference's reverse direction is its forward one with
			// every edge turned round, in edge order.
			fwd, rev := ref.edges[r], ref.edges[r+nRel]
			if len(fwd) != len(rev) {
				t.Fatalf("relation %d: %d fwd vs %d rev edges", r, len(fwd), len(rev))
			}
			for i, e := range fwd {
				if rev[i] != [2]int32{e[1], e[0]} {
					t.Fatalf("relation %d edge %d: rev %v does not mirror fwd %v", r, i, rev[i], e)
				}
			}
			// Both directions' in- and out-neighbour lists are the
			// reference's edges grouped by destination and by source.
			for _, d := range []int{r, r + nRel} {
				p := &adj.plans[d]
				dstPtr, dstSrc := refGroup(adj.NumNodes, ref.edges[d], 1, 0)
				srcPtr, srcDst := refGroup(adj.NumNodes, ref.edges[d], 0, 1)
				if !slices.Equal(p.dstPtr, dstPtr) || !slices.Equal(p.dstSrc, dstSrc) ||
					!slices.Equal(p.srcPtr, srcPtr) || !slices.Equal(p.srcDst, srcDst) {
					t.Fatalf("direction %d: plans differ from the reference", d)
				}
			}
		}
	}
}

func TestPropagateAveragesNeighbours(t *testing.T) {
	g := &programl.Graph{
		Nodes: make([]programl.Node, 3),
		Edges: []programl.Edge{
			{Src: 0, Dst: 2, Rel: programl.RelData},
			{Src: 1, Dst: 2, Rel: programl.RelData},
		},
	}
	adj := BuildAdjacency(g)
	h := tensor.FromSlice(3, 1, []float64{10, 20, 0})
	out := propagate(adj, int(programl.RelData), h)
	if math.Abs(out.At(2, 0)-15) > 1e-12 {
		t.Fatalf("node 2 message = %g, want mean 15", out.At(2, 0))
	}
	if out.At(0, 0) != 0 || out.At(1, 0) != 0 {
		t.Fatal("nodes without in-edges must receive zero")
	}
}

func TestLayerGradCheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	g := toyGraph()
	adj := BuildAdjacency(g)
	layer := NewLayer("g1", 3, 2, rng)
	layer.SetGraph(adj)

	x := tensor.New(5, 3)
	x.FillUniform(rng, 1)
	labels := []int{1}

	offsets := []int{0, 5}
	var mp nn.SegmentPool
	loss := func() float64 {
		h := layer.Forward(x)
		l, _ := nn.SoftmaxCrossEntropy(mp.Forward(h, offsets), labels)
		return l
	}

	nn.ZeroGrads(layer.Params())
	h := layer.Forward(x)
	pooled := mp.Forward(h, offsets)
	_, dp := nn.SoftmaxCrossEntropy(pooled, labels)
	dx := layer.Backward(mp.Backward(dp))

	for _, p := range layer.Params() {
		for i := 0; i < len(p.W.Data); i += 2 {
			const eps = 1e-6
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			if math.Abs(p.Grad.Data[i]-want) > 1e-5 {
				t.Fatalf("%s grad[%d] = %g, want %g", p.Name, i, p.Grad.Data[i], want)
			}
		}
	}
	for i := range x.Data {
		const eps = 1e-6
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		want := (lp - lm) / (2 * eps)
		if math.Abs(dx.Data[i]-want) > 1e-5 {
			t.Fatalf("dx[%d] = %g, want %g", i, dx.Data[i], want)
		}
	}
}

func TestEmbeddingGradScatter(t *testing.T) {
	rng := tensor.NewRNG(2)
	emb := NewEmbedding("emb", 10, 4, rng)
	g := toyGraph()
	// Two nodes share token 2 to exercise gradient accumulation.
	g.Nodes[4].Token = 2
	h := emb.ForwardBatch(MergeCompiled([]*CompiledGraph{CompileGraph(g)}))
	if h.Rows != 5 || h.Cols != emb.OutDim() {
		t.Fatalf("embedding out %dx%d", h.Rows, h.Cols)
	}
	// Kind one-hot present.
	if h.At(2, 4+int(programl.KindVariable)) != 1 {
		t.Fatal("kind one-hot missing")
	}
	dout := tensor.New(5, emb.OutDim())
	for i := range dout.Data {
		dout.Data[i] = 1
	}
	nn.ZeroGrads(emb.Params())
	emb.Backward(dout)
	// Token 2 used by nodes 1 and 4 → gradient 2 per dim; token 1 used once.
	if math.Abs(emb.Table.Grad.At(2, 0)-2) > 1e-12 {
		t.Fatalf("token2 grad = %g, want 2", emb.Table.Grad.At(2, 0))
	}
	if math.Abs(emb.Table.Grad.At(1, 0)-1) > 1e-12 {
		t.Fatalf("token1 grad = %g, want 1", emb.Table.Grad.At(1, 0))
	}
	if emb.Table.Grad.At(7, 0) != 0 {
		t.Fatal("unused token received gradient")
	}
}

func TestEmbeddingOutOfRangeTokenFallsBack(t *testing.T) {
	rng := tensor.NewRNG(3)
	emb := NewEmbedding("emb", 4, 2, rng)
	g := &programl.Graph{Nodes: []programl.Node{{Token: 99}}}
	h := emb.ForwardBatch(MergeCompiled([]*CompiledGraph{CompileGraph(g)}))
	for c := 0; c < 2; c++ {
		if h.At(0, c) != emb.Table.W.At(0, c) {
			t.Fatal("out-of-range token must use the <unk> row")
		}
	}
}

// TestMeanPoolBackwardDistributes checks the readout over one graph's
// rows: the mean forward, and the gradient spread evenly back.
func TestMeanPoolBackwardDistributes(t *testing.T) {
	var mp nn.SegmentPool
	x := tensor.FromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	y := mp.Forward(x, []int{0, 4})
	if math.Abs(y.At(0, 0)-4) > 1e-12 || math.Abs(y.At(0, 1)-5) > 1e-12 {
		t.Fatalf("pool = %v", y.Data)
	}
	d := mp.Backward(tensor.FromSlice(1, 2, []float64{8, 4}))
	for r := 0; r < 4; r++ {
		if math.Abs(d.At(r, 0)-2) > 1e-12 || math.Abs(d.At(r, 1)-1) > 1e-12 {
			t.Fatalf("backward row %d = %v", r, d.Row(r))
		}
	}
}

// Property: propagate preserves "mass" per destination — the output row of
// any node is a convex combination of its in-neighbour rows, so for
// constant input the output is constant (where in-degree > 0).
func TestQuickPropagateConvexity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(8)
		g := &programl.Graph{Nodes: make([]programl.Node, n)}
		ne := 1 + rng.Intn(3*n)
		for i := 0; i < ne; i++ {
			g.Edges = append(g.Edges, programl.Edge{
				Src: rng.Intn(n), Dst: rng.Intn(n),
				Rel: programl.Relation(rng.Intn(int(programl.NumRelations))),
			})
		}
		adj, ref := BuildAdjacency(g), refBuild(g)
		h := tensor.New(n, 1)
		for i := range h.Data {
			h.Data[i] = 7.5
		}
		for d := 0; d < NumDirections; d++ {
			out := propagate(adj, d, h)
			indeg := make([]bool, n)
			for _, e := range ref.edges[d] {
				indeg[e[1]] = true
			}
			for i := 0; i < n; i++ {
				want := 0.0
				if indeg[i] {
					want = 7.5
				}
				if math.Abs(out.At(i, 0)-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLayerParamCount(t *testing.T) {
	rng := tensor.NewRNG(4)
	l := NewLayer("x", 4, 4, rng)
	// self + 6 relation-directions + bias
	if got := len(l.Params()); got != NumDirections+2 {
		t.Fatalf("params = %d, want %d", got, NumDirections+2)
	}
}

func TestForwardPanicsWithoutGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rng := tensor.NewRNG(5)
	NewLayer("x", 2, 2, rng).Forward(tensor.New(3, 2))
}
