// Scratch-buffer support for the allocation-free hot paths: a Buf is a
// reusable matrix whose backing array persists across calls and grows
// monotonically to the largest shape requested. Layers keep one Buf per
// activation they produce, so steady-state training epochs and prediction
// sweeps run without allocating — the shape of each minibatch changes, but
// the capacity high-water mark is reached after the first few batches.
package tensor

// BufOf is a growable scratch matrix of T. Each Get invalidates the
// matrix returned by the previous Get on the same buffer (they share
// storage), so a buffer must back exactly one live tensor at a time — one
// buffer per distinct activation role, never one buffer for two operands
// of the same expression.
type BufOf[T Float] struct{ m MatrixOf[T] }

// Buf is the float64 scratch matrix.
type Buf = BufOf[float64]

// Get returns a rows×cols matrix backed by the buffer WITHOUT clearing
// previous contents — for outputs every element of which is about to be
// overwritten. The returned pointer is stable across calls.
func (b *BufOf[T]) Get(rows, cols int) *MatrixOf[T] {
	n := rows * cols
	if cap(b.m.Data) < n {
		b.m.Data = make([]T, n)
	}
	b.m.Data = b.m.Data[:n]
	b.m.Rows, b.m.Cols = rows, cols
	return &b.m
}

// GetZeroed returns a zeroed rows×cols matrix backed by the buffer — for
// accumulation targets that assume a zero start (MatMulAddInto and the
// scatter kernels).
func (b *BufOf[T]) GetZeroed(rows, cols int) *MatrixOf[T] {
	m := b.Get(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}
