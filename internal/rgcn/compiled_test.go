package rgcn

import (
	"fmt"
	"math"
	"testing"

	"pnptuner/internal/programl"
	"pnptuner/internal/tensor"
)

// compileAll compiles a graph list.
func compileAll(graphs []*programl.Graph) []*CompiledGraph {
	cgs := make([]*CompiledGraph, len(graphs))
	for i, g := range graphs {
		cgs[i] = CompileGraph(g)
	}
	return cgs
}

// assertBatchBitIdentical compares every observable of two batches built
// over the same graphs: offsets, norms, CSR plans, and (bit-for-bit) the
// full forward pass through an embedding and a layer.
func assertBatchBitIdentical(t *testing.T, label string, ref, got *Batch) {
	t.Helper()
	if ref.NumGraphs() != got.NumGraphs() || ref.NumNodes() != got.NumNodes() {
		t.Fatalf("%s: shape mismatch: %d/%d graphs, %d/%d nodes",
			label, ref.NumGraphs(), got.NumGraphs(), ref.NumNodes(), got.NumNodes())
	}
	for g := 0; g <= ref.NumGraphs(); g++ {
		if ref.Offsets[g] != got.Offsets[g] {
			t.Fatalf("%s: offset %d: %d vs %d", label, g, ref.Offsets[g], got.Offsets[g])
		}
	}
	for d := 0; d < NumDirections; d++ {
		if ref.Adj.EdgeCount(d) != got.Adj.EdgeCount(d) {
			t.Fatalf("%s: dir %d: %d vs %d edges", label, d, ref.Adj.EdgeCount(d), got.Adj.EdgeCount(d))
		}
		for i, v := range ref.Adj.Norm[d] {
			if got.Adj.Norm[d][i] != v {
				t.Fatalf("%s: dir %d norm[%d]: %g vs %g", label, d, i, v, got.Adj.Norm[d][i])
			}
		}
		rp, gp := &ref.Adj.plans[d], &got.Adj.plans[d]
		for i, v := range rp.dstPtr {
			if gp.dstPtr[i] != v {
				t.Fatalf("%s: dir %d dstPtr[%d]: %d vs %d", label, d, i, v, gp.dstPtr[i])
			}
		}
		for i, v := range rp.dstSrc {
			if gp.dstSrc[i] != v {
				t.Fatalf("%s: dir %d dstSrc[%d]: %d vs %d", label, d, i, v, gp.dstSrc[i])
			}
		}
		for i, v := range rp.srcPtr {
			if gp.srcPtr[i] != v {
				t.Fatalf("%s: dir %d srcPtr[%d]: %d vs %d", label, d, i, v, gp.srcPtr[i])
			}
		}
		for i, v := range rp.srcDst {
			if gp.srcDst[i] != v {
				t.Fatalf("%s: dir %d srcDst[%d]: %d vs %d", label, d, i, v, gp.srcDst[i])
			}
		}
	}
	// Full forward through shared parameters must be bit-identical.
	emb := NewEmbedding("e", 64, 8, tensor.NewRNG(9))
	layer := NewLayer("l", emb.OutDim(), 8, tensor.NewRNG(10))
	layer.SetGraph(ref.Adj)
	outRef := layer.Forward(emb.ForwardBatch(ref)).Clone()
	layer.SetGraph(got.Adj)
	outGot := layer.Forward(emb.ForwardBatch(got))
	for i := range outRef.Data {
		if outRef.Data[i] != outGot.Data[i] {
			t.Fatalf("%s: forward bit-drift at %d: %g vs %g", label, i, outRef.Data[i], outGot.Data[i])
		}
	}
}

// TestMergeCompiledMatchesNewBatch is the compile-once parity guarantee:
// compiling each graph's CSR plans straight from its edges and merging
// them is bit-identical to the reference's grouping of the concatenated
// edge lists, on random batches and on the builder's corner cases, alone
// and merged together.
func TestMergeCompiledMatchesNewBatch(t *testing.T) {
	rng := tensor.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(12)
		graphs := make([]*programl.Graph, n)
		for i := range graphs {
			graphs[i] = randomGraph(rng, fmt.Sprintf("t%d-g%d", trial, i))
		}
		ref := NewBatch(graphs)
		got := MergeCompiled(compileAll(graphs))
		assertBatchBitIdentical(t, fmt.Sprintf("trial %d", trial), ref, got)
	}
	corners := edgeCaseGraphs()
	for _, g := range corners {
		graphs := []*programl.Graph{g}
		assertBatchBitIdentical(t, g.RegionID, NewBatch(graphs), MergeCompiled(compileAll(graphs)))
	}
	mixed := append(corners, randomGraph(rng, "r"))
	assertBatchBitIdentical(t, "corners merged", NewBatch(mixed), MergeCompiled(compileAll(mixed)))
}

// TestMergerReuseIsStateless checks that a Merger's buffer reuse never
// leaks state between batches: merging A, then a larger B, then A again
// reproduces A's batch exactly.
func TestMergerReuseIsStateless(t *testing.T) {
	rng := tensor.NewRNG(123)
	small := compileAll([]*programl.Graph{randomGraph(rng, "s0"), randomGraph(rng, "s1")})
	var bigGraphs []*programl.Graph
	for i := 0; i < 9; i++ {
		bigGraphs = append(bigGraphs, randomGraph(rng, fmt.Sprintf("b%d", i)))
	}
	big := compileAll(bigGraphs)

	var mg Merger
	mg.Merge(small)
	mg.Merge(big)
	got := mg.Merge(small)
	ref := MergeCompiled(small)
	assertBatchBitIdentical(t, "reuse", ref, got)
}

// TestCompiledGraphClampsTokens checks compile-time clamping of negative
// tokens and of tokens int32 cannot hold, and gather-time clamping of
// tokens past the model vocabulary, at both precisions.
func TestCompiledGraphClampsTokens(t *testing.T) {
	emb := NewEmbedding("e", 10, 4, tensor.NewRNG(1))
	for _, c := range []struct {
		token    int
		compiled int32 // the CompiledGraph.Tokens entry
		row      int   // the table row gathered from the 10-token vocabulary
	}{
		{-3, 0, 0},
		{2, 2, 2},
		{999, 999, 0},
		{math.MaxInt32, math.MaxInt32, 0},
		{math.MaxInt, 0, 0},
	} {
		g := &programl.Graph{
			RegionID: "clamp",
			Nodes:    []programl.Node{{Token: 1}, {Token: c.token, Kind: programl.NodeKind(2)}},
		}
		cg := CompileGraph(g)
		if cg.Tokens[1] != c.compiled {
			t.Errorf("token %d compiled to %d, want %d", c.token, cg.Tokens[1], c.compiled)
			continue
		}
		b := MergeCompiled([]*CompiledGraph{cg})
		checkGather(t, c.token, emb.ForwardBatch(b), emb.Table.W, c.row)
		q := ConvertEmbedding[float32](emb)
		checkGather(t, c.token, q.ForwardBatch(b), q.Table.W, c.row)
	}
}

// checkGather checks that node 1 of out gathered table row want and
// carries kind tag 2.
func checkGather[T tensor.Float](t *testing.T, token int, out, table *tensor.MatrixOf[T], want int) {
	t.Helper()
	dim := table.Cols
	for c := 0; c < dim; c++ {
		if out.At(1, c) != table.At(want, c) {
			t.Errorf("%T token %d did not gather row %d at col %d", out, token, want, c)
			return
		}
	}
	if out.At(1, dim+2) != 1 {
		t.Errorf("%T token %d: kind tag not set", out, token)
	}
}

func ExampleMergeCompiled() {
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
	// Compile once per graph (in production this artifact is cached on the
	// region and reused by every epoch, fold, and serving window)...
	ca, cb := CompileGraph(a), CompileGraph(b)
	// ...then merge precompiled plans in O(edges) — no edge re-grouping,
	// no re-finalization.
	batch := MergeCompiled([]*CompiledGraph{ca, cb})
	fmt.Println("graphs:", batch.NumGraphs())
	fmt.Println("total nodes:", batch.NumNodes())
	lo, hi := batch.Segment(1)
	fmt.Printf("graph b owns rows [%d, %d)\n", lo, hi)
	fmt.Println("batched tokens:", batch.Tokens)
	// Output:
	// graphs: 2
	// total nodes: 5
	// graph b owns rows [2, 5)
	// batched tokens: [1 2 3 4 5]
}

var benchCompiled *CompiledGraph

// BenchmarkCompileGraph compiles one random 1,500-node graph per op, the
// size of a large serving request.
func BenchmarkCompileGraph(b *testing.B) {
	g := sizedGraph(tensor.NewRNG(1500), "bench", 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCompiled = CompileGraph(g)
	}
}
