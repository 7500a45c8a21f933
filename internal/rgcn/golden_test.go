package rgcn_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
)

// batchDigests returns FNV-64a digests of a batch's merged in-degree norms
// (every direction's Norm as little-endian float64 bits, in direction
// order) and of its CSR plans (per direction: dstPtr, dstSrc, srcPtr,
// srcDst, each as its length then its little-endian int32 values).
func batchDigests(b *rgcn.Batch) (norms, plans string) {
	hn, hp := fnv.New64a(), fnv.New64a()
	var buf [8]byte
	for d := 0; d < rgcn.NumDirections; d++ {
		for _, v := range b.Adj.Norm[d] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			hn.Write(buf[:])
		}
		dstPtr, dstSrc, srcPtr, srcDst := rgcn.PlanArrays(b.Adj, d)
		for _, arr := range [][]int32{dstPtr, dstSrc, srcPtr, srcDst} {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(arr)))
			hp.Write(buf[:])
			for _, v := range arr {
				binary.LittleEndian.PutUint32(buf[:4], uint32(v))
				hp.Write(buf[:4])
			}
		}
	}
	return fmt.Sprintf("%016x", hn.Sum64()), fmt.Sprintf("%016x", hp.Sum64())
}

// TestBatchGoldenFixtures freezes CompileGraph and Merger on corpus
// graphs: the merged norms and every direction's CSR plan of each fixed
// batch, merged by one reused Merger from the regions' CompiledGraphs,
// are pinned by digest, and so is the test-only edge-list reference
// (rgcn.NewBatch) over the same raw graphs. Integer plans and 1/indegree
// norms involve no summation order, so the digests hold on every GOARCH.
func TestBatchGoldenFixtures(t *testing.T) {
	corpus, err := kernels.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name         string
		ids          []string // nil: the whole corpus, in corpus order
		norms, plans string
	}{
		// The whole corpus first, so the smaller batches merge into the
		// Merger's grown buffers.
		{"corpus", nil, "d6fc57014dc164e6", "4bf9cd5c08ba6fa1"},
		{"one-region", []string{"LULESH.CalcForceForNodes#0"}, "58c8bfe5eae2cffe", "3b1de638db789745"},
		{"mixed-four", []string{
			"gemm.kernel_gemm#0",
			"LULESH.CalcKinematicsForElems#0",
			"Quicksilver.qs_cycle_tracking#0",
			"trisolv.kernel_trisolv#0",
		}, "c070d48d93cc0989", "f49d8add0c01d781"},
	}
	var mg rgcn.Merger
	for _, f := range fixtures {
		regions := corpus.Regions
		if f.ids != nil {
			regions = make([]*kernels.Region, len(f.ids))
			for i, id := range f.ids {
				if regions[i] = corpus.Region(id); regions[i] == nil {
					t.Fatalf("%s: no corpus region %q", f.name, id)
				}
			}
		}
		graphs := make([]*programl.Graph, len(regions))
		cgs := make([]*rgcn.CompiledGraph, len(regions))
		for i, r := range regions {
			graphs[i], cgs[i] = r.Graph, r.CompiledGraph()
		}
		norms, plans := batchDigests(mg.Merge(cgs))
		if norms != f.norms || plans != f.plans {
			t.Errorf("%s: Merger.Merge digests norms %s plans %s, want %s %s", f.name, norms, plans, f.norms, f.plans)
		}
		rNorms, rPlans := batchDigests(rgcn.NewBatch(graphs))
		if rNorms != f.norms || rPlans != f.plans {
			t.Errorf("%s: reference NewBatch digests norms %s plans %s, want %s %s", f.name, rNorms, rPlans, f.norms, f.plans)
		}
	}
}
