// Parallel execution primitives: a lightweight fork-join worker pool under
// the matrix kernels and the batched graph-inference engine. Work over
// [0, n) is split into contiguous chunks, one per worker, so every output
// row is written by exactly one goroutine — results are deterministic
// regardless of the worker count, and the -race detector sees clean
// ownership.
package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCap, when positive, bounds the pool width below GOMAXPROCS. It
// lets coarse-grained parallelism (e.g. concurrent LOOCV folds) divide
// the kernel pool among themselves instead of oversubscribing the CPU.
var workerCap atomic.Int64

// Workers returns the worker-pool width: one goroutine per available CPU
// (GOMAXPROCS), the degree the batched engine fans out to, possibly
// lowered by SetWorkerCap.
func Workers() int {
	w := runtime.GOMAXPROCS(0)
	if c := int(workerCap.Load()); c > 0 && c < w {
		w = c
	}
	return w
}

// SetWorkerCap bounds the kernel pool width (0 removes the bound) and
// returns a restore function for the previous cap. Chunking of all
// deterministic reductions depends only on operand shapes, so capping
// never changes numerical results — only scheduling.
func SetWorkerCap(n int) (restore func()) {
	old := workerCap.Swap(int64(n))
	return func() { workerCap.Store(old) }
}

// ParallelFor splits [0, n) into contiguous chunks across at most
// Workers() goroutines and calls fn(lo, hi) on each. fn must only write
// state derived from its own index range.
func ParallelFor(n int, fn func(lo, hi int)) {
	parallelWorkers(n, Workers(), func(_, lo, hi int) { fn(lo, hi) })
}

// ParallelWorkers is ParallelFor with the worker index exposed, so callers
// can maintain per-worker scratch buffers.
func ParallelWorkers(n int, fn func(worker, lo, hi int)) {
	parallelWorkers(n, Workers(), fn)
}

// parallelWorkers runs fn over [0, n) on exactly min(workers, n) chunks.
func parallelWorkers(n, workers int, fn func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	w := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
		w++
	}
	wg.Wait()
}

// scatterParallelThreshold is the scatter volume (rows × cols) above which
// ScatterAddRows fans out across the pool.
const scatterParallelThreshold = 1 << 15

// reductionChunks splits n reduction rows into chunks whose boundaries
// depend only on the operand shape (work volume), never on the worker
// count — so partial-sum merge order, and therefore every float result,
// is identical on every machine. Returns the chunk length.
func reductionChunks(n, work int) int {
	nChunks := work / scatterParallelThreshold
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
// (token-embedding gradients scatter many nodes onto few vocabulary rows),
// so the pooled path accumulates fixed shape-determined chunks of src into
// private scratch copies of dst and merges them afterwards in chunk order
// — each destination row is merged by exactly one goroutine, keeping
// results race-free and bit-identical across worker counts.
func ScatterAddRows[T Float](dst *MatrixOf[T], idx []int, src *MatrixOf[T], cols int) {
	if len(idx) != src.Rows {
		panic(fmt.Sprintf("tensor: scatter %d indices for %d rows", len(idx), src.Rows))
	}
	if cols > src.Cols || cols > dst.Cols {
		panic(fmt.Sprintf("tensor: scatter %d cols from %dx%d into %dx%d",
			cols, src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	work := len(idx) * cols
	if work < scatterParallelThreshold {
		for i, t := range idx {
			drow := dst.Row(t)[:cols]
			for c, v := range src.Row(i)[:cols] {
				drow[c] += v
			}
		}
		return
	}
	chunk := reductionChunks(len(idx), work)
	nChunks := (len(idx) + chunk - 1) / chunk
	scratch := make([]*MatrixOf[T], nChunks)
	ParallelFor(nChunks, func(clo, chi int) {
		for ci := clo; ci < chi; ci++ {
			s := NewOf[T](dst.Rows, cols)
			scratch[ci] = s
			lo, hi := ci*chunk, (ci+1)*chunk
			if hi > len(idx) {
				hi = len(idx)
			}
			for i := lo; i < hi; i++ {
				drow := s.Row(idx[i])
				for c, v := range src.Row(i)[:cols] {
					drow[c] += v
				}
			}
		}
	})
	ParallelFor(dst.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			drow := dst.Row(r)[:cols]
			for _, s := range scratch {
				for c, v := range s.Row(r) {
					drow[c] += v
				}
			}
		}
	})
}
