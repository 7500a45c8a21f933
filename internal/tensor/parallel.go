// Parallel execution primitives: a lightweight fork-join pool. Work over
// [0, n) is split into contiguous chunks, one per worker, so every output
// row is written by exactly one goroutine — results are deterministic
// regardless of the worker count, and the -race detector sees clean
// ownership. The kernels in this package all run on the calling
// goroutine; the one fan-out inside a model is the RGCN layer forward,
// which splits its output rows once across ParallelFor. The coarse levels
// above it (LOOCV folds, concurrent requests, replicas) are where a
// bigger machine adds workers.
package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCap, when positive, bounds the pool width below GOMAXPROCS. It
// lets coarse-grained parallelism (concurrent LOOCV folds) divide the
// pool among themselves instead of oversubscribing the CPU.
var workerCap atomic.Int64

// Workers returns the pool width ParallelFor fans out to: one goroutine
// per available CPU (GOMAXPROCS), possibly lowered by SetWorkerCap.
func Workers() int {
	w := runtime.GOMAXPROCS(0)
	if c := int(workerCap.Load()); c > 0 && c < w {
		w = c
	}
	return w
}

// SetWorkerCap bounds the pool width (0 removes the bound) and returns a
// restore function for the previous cap. Every reduction chunks by
// operand shape, never by worker count, so capping never changes
// numerical results — only scheduling.
func SetWorkerCap(n int) (restore func()) {
	old := workerCap.Swap(int64(n))
	return func() { workerCap.Store(old) }
}

// ParallelFor splits [0, n) into contiguous chunks across at most
// Workers() goroutines and calls fn(lo, hi) on each. fn must only write
// state derived from its own index range.
func ParallelFor(n int, fn func(lo, hi int)) {
	parallelFor(n, Workers(), fn)
}

// parallelFor runs fn over [0, n) on exactly min(workers, n) chunks.
func parallelFor(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// reductionChunkWork is the operand volume (rows × cols) per chunk that
// reductionChunks aims for, and the volume from which ScatterAddRows
// chunks at all. It fixes the chunk count of both chunked reductions,
// and chunk partials merge in an order that rounds differently from one
// running sum, so this value is part of every training digest: changing
// it moves weights.
const reductionChunkWork = 1 << 15

// reductionChunks splits n reduction rows into chunks whose boundaries
// depend only on the operand shape (work volume), never on the worker
// count — so partial-sum merge order, and therefore every float result,
// is identical on every machine. Returns the chunk length.
func reductionChunks(n, work int) int {
	nChunks := work / reductionChunkWork
	if nChunks < 2 {
		nChunks = 2
	}
	if nChunks > 32 {
		nChunks = 32
	}
	if nChunks > n {
		nChunks = n
	}
	return (n + nChunks - 1) / nChunks
}

// ScatterAddRows accumulates the first cols entries of each src row into
// dst at idx: dst[idx[i]][c] += src[i][c]. Repeated indices are the norm
// (token-embedding gradients scatter many nodes onto few vocabulary rows).
// From reductionChunkWork up it sums fixed shape-determined chunks of src
// into pooled zeroed scratch and adds each chunk's partial into dst in
// chunk order, so results are bit-identical on every machine.
func ScatterAddRows[T Float](dst *MatrixOf[T], idx []int, src *MatrixOf[T], cols int) {
	if len(idx) != src.Rows {
		panic(fmt.Sprintf("tensor: scatter %d indices for %d rows", len(idx), src.Rows))
	}
	if cols > src.Cols || cols > dst.Cols {
		panic(fmt.Sprintf("tensor: scatter %d cols from %dx%d into %dx%d",
			cols, src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	work := len(idx) * cols
	if work < reductionChunkWork {
		scatterRange(dst, idx, src, cols, 0, len(idx))
		return
	}
	pool := scratchPool[T]()
	buf := getScratch[T](pool)
	defer pool.Put(buf)
	chunk := reductionChunks(len(idx), work)
	for lo := 0; lo < len(idx); lo += chunk {
		s := buf.GetZeroed(dst.Rows, cols)
		scatterRange(s, idx, src, cols, lo, min(lo+chunk, len(idx)))
		for r := 0; r < dst.Rows; r++ {
			drow := dst.Row(r)[:cols]
			for c, v := range s.Row(r) {
				drow[c] += v
			}
		}
	}
}

// scatterRange adds rows [lo, hi) of src into dst at idx.
func scatterRange[T Float](dst *MatrixOf[T], idx []int, src *MatrixOf[T], cols, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Row(idx[i])[:cols]
		for c, v := range src.Row(i)[:cols] {
			drow[c] += v
		}
	}
}
