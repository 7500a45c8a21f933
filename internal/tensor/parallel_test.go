package tensor

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelForCoversRangeExactlyOnce: every index of [0, n) is
// visited once, in contiguous ranges, at pool widths below, at and above
// n.
func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 3}, {100, 4}, {5, 8}, {16, 1}, {64, 4},
	} {
		hits := make([]int32, tc.n)
		var calls atomic.Int32
		parallelFor(tc.n, tc.workers, func(lo, hi int) {
			calls.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, h)
			}
		}
		if want := min(tc.n, tc.workers); int(calls.Load()) > max(want, 1) {
			t.Fatalf("n=%d workers=%d: %d ranges, want at most %d", tc.n, tc.workers, calls.Load(), want)
		}
	}
	// The exported entry point runs at the pool width, capped.
	defer SetWorkerCap(2)()
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var calls atomic.Int32
	ParallelFor(10, func(lo, hi int) { calls.Add(1) })
	if calls.Load() != 2 {
		t.Fatalf("ParallelFor under SetWorkerCap(2) ran %d ranges, want 2", calls.Load())
	}
}

// scatterRef is the sequential reference for ScatterAddRows.
func scatterRef(dst *Matrix, idx []int, src *Matrix, cols int) {
	for i, tk := range idx {
		drow := dst.Row(tk)[:cols]
		for c, v := range src.Row(i)[:cols] {
			drow[c] += v
		}
	}
}

func TestScatterAddRowsMatchesReference(t *testing.T) {
	// Sized above reductionChunkWork, so the chunked path runs.
	rng := NewRNG(9)
	const rows, cols, vocab = 3000, 16, 37
	src := New(rows, cols+3)
	src.FillUniform(rng, 1)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = rng.Intn(vocab)
	}

	want := New(vocab, cols+3)
	scatterRef(want, idx, src, cols)
	got := New(vocab, cols+3)
	ScatterAddRows(got, idx, src, cols)

	if rows*cols < reductionChunkWork {
		t.Fatalf("test sized below the chunk gate (%d < %d)", rows*cols, reductionChunkWork)
	}
	for i := range want.Data {
		diff := want.Data[i] - got.Data[i]
		if diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("element %d: chunked %g vs sequential %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestScatterAddRowsDeterministic: repeated chunked scatters, which
// reuse pooled scratch, agree bit for bit.
func TestScatterAddRowsDeterministic(t *testing.T) {
	rng := NewRNG(10)
	const rows, cols, vocab = 4096, 8, 5
	src := New(rows, cols)
	src.FillUniform(rng, 1)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = rng.Intn(vocab)
	}
	first := New(vocab, cols)
	ScatterAddRows(first, idx, src, cols)
	for trial := 0; trial < 5; trial++ {
		again := New(vocab, cols)
		ScatterAddRows(again, idx, src, cols)
		for i := range first.Data {
			if first.Data[i] != again.Data[i] {
				t.Fatalf("trial %d element %d: %g vs %g — chunked scatter is not deterministic",
					trial, i, again.Data[i], first.Data[i])
			}
		}
	}
}

// TestReductionsDeterministicAcrossWorkerCounts: chunk boundaries of the
// scratch-merged reductions depend only on operand shape, so results must
// be bit-identical whatever GOMAXPROCS or worker cap is in effect — the
// property that keeps training reproducible across machines.
func TestReductionsDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := NewRNG(12)
	a := New(3000, 15)
	a.FillUniform(rng, 1)
	b := New(3000, 16)
	b.FillUniform(rng, 1)

	run := func() *Matrix {
		out := New(15, 16)
		MatMulTAAddInto(a, b, out)
		return out
	}
	ref := run()
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		got := run()
		runtime.GOMAXPROCS(old)
		for i := range ref.Data {
			if ref.Data[i] != got.Data[i] {
				t.Fatalf("GOMAXPROCS=%d: element %d: %g vs %g", procs, i, got.Data[i], ref.Data[i])
			}
		}
	}
	// A worker cap must not change results either.
	restore := SetWorkerCap(1)
	capped := run()
	restore()
	for i := range ref.Data {
		if ref.Data[i] != capped.Data[i] {
			t.Fatalf("capped pool: element %d: %g vs %g", i, capped.Data[i], ref.Data[i])
		}
	}
}

func TestRowMatrixSharesBacking(t *testing.T) {
	m := New(3, 4)
	m.Set(1, 2, 7)
	r := m.RowMatrix(1)
	if r.Rows != 1 || r.Cols != 4 || r.At(0, 2) != 7 {
		t.Fatalf("row view wrong: %+v", r)
	}
	r.Set(0, 0, 9)
	if m.At(1, 0) != 9 {
		t.Fatal("row view does not share backing array")
	}
}
