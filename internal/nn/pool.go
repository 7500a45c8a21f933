package nn

import (
	"fmt"

	"pnptuner/internal/tensor"
)

// SegmentPoolOf is the batch-aware mean-pool readout: row segment g of the
// input — rows [offsets[g], offsets[g+1]), one graph of a block-diagonal
// batch — pools to output row g. It generalizes the single-graph MeanPool
// (offsets {0, n} reproduce it exactly) so one batched forward pass yields
// every graph's pooled vector at once.
type SegmentPoolOf[T tensor.Float] struct {
	offsets []int
	cols    int

	outBuf tensor.BufOf[T]
	dxBuf  tensor.BufOf[T]
}

// SegmentPool is the float64 segment readout.
type SegmentPool = SegmentPoolOf[float64]

// Forward mean-pools each row segment of x, returning a
// (len(offsets)-1)×Cols matrix. offsets must be non-decreasing, start at
// 0, and end at x.Rows. The result is owned by the pool and valid until
// the next Forward.
func (p *SegmentPoolOf[T]) Forward(x *tensor.MatrixOf[T], offsets []int) *tensor.MatrixOf[T] {
	if len(offsets) < 1 || offsets[0] != 0 || offsets[len(offsets)-1] != x.Rows {
		panic(fmt.Sprintf("nn: segment pool offsets %v over %d rows", offsets, x.Rows))
	}
	p.offsets = offsets
	p.cols = x.Cols
	out := p.outBuf.GetZeroed(len(offsets)-1, x.Cols)
	for g := 0; g+1 < len(offsets); g++ {
		lo, hi := offsets[g], offsets[g+1]
		if lo == hi {
			continue
		}
		orow := out.Row(g)
		for r := lo; r < hi; r++ {
			for c, v := range x.Row(r) {
				orow[c] += v
			}
		}
		inv := 1 / T(hi-lo)
		for c := range orow {
			orow[c] *= inv
		}
	}
	return out
}

// Backward broadcasts each pooled-row gradient back over its segment,
// scaled by 1/segment size — the batched analogue of MeanPool.Backward.
// The result is owned by the pool and valid until the next Backward.
func (p *SegmentPoolOf[T]) Backward(dout *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	if dout.Rows != len(p.offsets)-1 || dout.Cols != p.cols {
		panic(fmt.Sprintf("nn: segment pool backward %dx%d, want %dx%d",
			dout.Rows, dout.Cols, len(p.offsets)-1, p.cols))
	}
	dx := p.dxBuf.GetZeroed(p.offsets[len(p.offsets)-1], p.cols)
	for g := 0; g+1 < len(p.offsets); g++ {
		lo, hi := p.offsets[g], p.offsets[g+1]
		if lo == hi {
			continue
		}
		inv := 1 / T(hi-lo)
		drow := dout.Row(g)
		for r := lo; r < hi; r++ {
			row := dx.Row(r)
			for c, v := range drow {
				row[c] = v * inv
			}
		}
	}
	return dx
}
