package tensor

// Mat32 is a dense row-major float32 matrix — the quantized-serving
// mirror of Matrix. Weights are converted once at quantize time; the
// forward kernels below then run the whole serving pass in float32
// (half the memory traffic of the float64 path).
type Mat32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 allocates a zeroed rows×cols float32 matrix.
func New32(rows, cols int) *Mat32 {
	return &Mat32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Quantize32 converts a float64 matrix into a freshly allocated float32
// copy — the one-time weight conversion of the quantized serving path.
func Quantize32(src *Matrix) *Mat32 {
	m := New32(src.Rows, src.Cols)
	for i, v := range src.Data {
		m.Data[i] = float32(v)
	}
	return m
}

// Quantize32Vec converts a float64 slice to float32.
func Quantize32Vec(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// Row returns row r as a slice sharing the matrix's storage.
func (m *Mat32) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// At returns the element at (r, c).
func (m *Mat32) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Mat32) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Zero clears the matrix in place.
func (m *Mat32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddRowVec adds v to every row in place (bias broadcast).
func (m *Mat32) AddRowVec(v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec32 length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, b := range v {
			row[c] += b
		}
	}
}

// Buf32 is a reusable float32 matrix arena with the same contract as
// Buf: Get reshapes without clearing, GetZeroed clears, and the backing
// array is reused across calls so steady-state serving allocates
// nothing. One Buf32 per live tensor.
type Buf32 struct{ m Mat32 }

// Get returns a rows×cols matrix backed by the buffer, contents
// unspecified.
func (b *Buf32) Get(rows, cols int) *Mat32 {
	n := rows * cols
	if cap(b.m.Data) < n {
		b.m.Data = make([]float32, n)
	}
	b.m.Data = b.m.Data[:n]
	b.m.Rows, b.m.Cols = rows, cols
	return &b.m
}

// GetZeroed returns a zeroed rows×cols matrix backed by the buffer.
func (b *Buf32) GetZeroed(rows, cols int) *Mat32 {
	m := b.Get(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// MatMul32AddInto computes out += a·b, splitting rows across the worker
// pool for large operands — MatMulAddInto in float32 on the same
// matmulRows kernel, so the same per-element summation order and zero
// skip on half the memory traffic.
func MatMul32AddInto(a, b, out *Mat32) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMul32AddInto shape mismatch")
	}
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold || Workers() == 1 {
		matmulRows(a.Data, b.Data, out.Data, a.Cols, b.Cols, 0, a.Rows)
		return
	}
	ParallelFor(a.Rows, func(lo, hi int) {
		matmulRows(a.Data, b.Data, out.Data, a.Cols, b.Cols, lo, hi)
	})
}

// MatMul32Into computes out = a·b (out zeroed first).
func MatMul32Into(a, b, out *Mat32) {
	out.Zero()
	MatMul32AddInto(a, b, out)
}

// GatherRows32 copies table rows selected by idx into out: row i of out
// becomes table.Row(idx[i]). Out-of-range indices clamp to row 0 (the
// unknown-token convention of the embedding layer).
func GatherRows32(table *Mat32, idx []int32, out *Mat32) {
	if out.Rows != len(idx) || out.Cols < table.Cols {
		panic("tensor: GatherRows32 shape mismatch")
	}
	for i, t := range idx {
		r := int(t)
		if r < 0 || r >= table.Rows {
			r = 0
		}
		copy(out.Row(i)[:table.Cols], table.Row(r))
	}
}

// LeakyReLU32Into writes max(x, alpha·x) elementwise into out (which may
// alias x) — the float32 activation of the quantized forward pass.
func LeakyReLU32Into(alpha float32, x, out *Mat32) {
	if out.Rows != x.Rows || out.Cols != x.Cols {
		panic("tensor: LeakyReLU32Into shape mismatch")
	}
	for i, v := range x.Data {
		if v < 0 {
			v *= alpha
		}
		out.Data[i] = v
	}
}
