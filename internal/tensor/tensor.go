// Package tensor provides the dense matrix math under the neural network
// stack: allocation, BLAS-level-3 style multiplies, the RGCN layers' CSR
// row gather (GatherRows), elementwise kernels, and a deterministic RNG.
// Matrices are generic over float32 and float64: training runs in
// float64, and quantized serving runs the same kernels in float32. On
// amd64 with AVX2 the products (both precisions) and the gather (float32)
// run on assembly row kernels, bit for bit with their Go loops.
package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Float is the element type of a matrix.
type Float interface{ float32 | float64 }

// MatrixOf is a dense row-major matrix of T.
type MatrixOf[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is the float64 matrix that training and default serving use.
type Matrix = MatrixOf[float64]

// New allocates a zeroed rows×cols float64 matrix.
func New(rows, cols int) *Matrix { return NewOf[float64](rows, cols) }

// NewOf allocates a zeroed rows×cols matrix of T.
func NewOf[T Float](rows, cols int) *MatrixOf[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &MatrixOf[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// Convert returns a copy of m with every element converted to T: the
// one-time weight conversion of quantized serving.
func Convert[T Float](m *Matrix) *MatrixOf[T] {
	out := NewOf[T](m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = T(v)
	}
	return out
}

// FromSlice wraps data (len rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *MatrixOf[T]) At(r, c int) T { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *MatrixOf[T]) Set(r, c int, v T) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (shared backing array).
func (m *MatrixOf[T]) Row(r int) []T { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// RowMatrix returns row r as a 1×Cols matrix view (shared backing array),
// letting single-sample code address one row of a batched result.
func (m *MatrixOf[T]) RowMatrix(r int) *MatrixOf[T] {
	return &MatrixOf[T]{Rows: 1, Cols: m.Cols, Data: m.Row(r)}
}

// Clone returns a deep copy.
func (m *MatrixOf[T]) Clone() *MatrixOf[T] {
	out := NewOf[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements in place.
func (m *MatrixOf[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// sameShape panics unless a and b have identical shapes.
func sameShape[T Float](op string, a, b *MatrixOf[T]) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// AddInPlace computes m += o.
func (m *MatrixOf[T]) AddInPlace(o *MatrixOf[T]) {
	sameShape("add", m, o)
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// AxpyInPlace computes m += alpha*o.
func (m *MatrixOf[T]) AxpyInPlace(alpha T, o *MatrixOf[T]) {
	sameShape("axpy", m, o)
	for i, v := range o.Data {
		m.Data[i] += alpha * v
	}
}

// ScaleInPlace computes m *= k.
func (m *MatrixOf[T]) ScaleInPlace(k T) {
	for i := range m.Data {
		m.Data[i] *= k
	}
}

// Hadamard returns the elementwise product a⊙b.
func Hadamard(a, b *Matrix) *Matrix {
	sameShape("hadamard", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// AddRowVec adds vector v (len Cols) to every row of m in place.
func (m *MatrixOf[T]) AddRowVec(v []T) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: row vec len %d vs cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, x := range v {
			row[c] += x
		}
	}
}

// ColSums returns the per-column sums (used for bias gradients).
func (m *MatrixOf[T]) ColSums() []T {
	out := make([]T, m.Cols)
	m.ColSumsInto(out)
	return out
}

// ColSumsInto overwrites dst (len Cols) with the per-column sums — the
// allocation-free form for layer-owned scratch.
func (m *MatrixOf[T]) ColSumsInto(dst []T) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: col sums into len %d, want %d", len(dst), m.Cols))
	}
	for c := range dst {
		dst[c] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, x := range row {
			dst[c] += x
		}
	}
}

// MeanRow returns the column-wise mean as a 1×Cols matrix (mean pooling).
func (m *MatrixOf[T]) MeanRow() *MatrixOf[T] {
	out := NewOf[T](1, m.Cols)
	if m.Rows == 0 {
		return out
	}
	sums := m.ColSums()
	inv := 1 / T(m.Rows)
	for c, s := range sums {
		out.Data[c] = s * inv
	}
	return out
}

// FrobeniusNorm returns sqrt(sum of squares).
func (m *MatrixOf[T]) FrobeniusNorm() float64 {
	var s T
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(float64(s))
}

// reductionThreshold is the operand volume from which MatMulTAAddInto
// splits its k rows into chunks summed apart and merged in chunk order.
// That merge order rounds differently from one running sum, so this
// value is part of every training digest: changing it moves weights.
const reductionThreshold = 1 << 16

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulAddInto(a, b, out)
	return out
}

// MatMulAddInto accumulates out += a·b on the calling goroutine. Fusing
// the accumulation skips the temporary (and its zeroing) that
// MatMul-then-AddInPlace would allocate — the per-relation transforms of
// the RGCN hot path hit this many times per layer.
func MatMulAddInto[T Float](a, b, out *MatrixOf[T]) {
	MatMulAddRows(a, b, out, 0, a.Rows)
}

// MatMulAddRows accumulates rows [lo, hi) of out += a·b and touches no
// other row, so callers that own disjoint row ranges can run it
// concurrently on one out. Each output row is computed the same way
// whatever range holds it.
func MatMulAddRows[T Float](a, b, out *MatrixOf[T], lo, hi int) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols || lo < 0 || lo > hi || hi > a.Rows {
		panic(fmt.Sprintf("tensor: matmul rows [%d,%d) of %dx%d · %dx%d into %dx%d",
			lo, hi, a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	matmulRows(a.Data, b.Data, out.Data, a.Cols, b.Cols, lo, hi)
}

// The three range kernels below are blocked for speed but keep one
// invariant, on which every golden and weight digest rests: each output
// element is summed in the order of the plain one-column loop — k
// ascending, left to right, never reassociated — and a zero a value
// contributes no term at all (0·b is not added, so signed zeros and
// non-finite b values come out exactly as the plain loop leaves them).
// On amd64 Go never fuses x*y+z into an FMA at the default GOAMD64 level,
// so there the kernels match the plain loops bit for bit.
//
// On amd64 with AVX2 all three products run on one assembly row kernel
// (matmul_amd64.s), sixteen output columns at a time, with the Go loops
// finishing the n % 16 tail columns. The forward product passes it a
// row-major a; the weight gradient aᵀ·b passes a's column as the row, by
// stride. The input gradient a·bᵀ transposes b (a weight matrix) once,
// zero-padding its columns to a multiple of sixteen, and runs the forward
// product into a zeroed out (or zeroed scratch of the padded width, for
// the first RGCN layer's 15-row weight). That product skips zero a
// terms, which the plain dot product adds, and is still exact: the sum
// starts at +0, and a sum that starts at +0 never becomes −0 (x + y is −0
// only when both are −0), so adding the ±0 that a zero a times a finite
// weight gives changes nothing. A zero times ±Inf or NaN is NaN, so a b
// holding a non-finite value takes the Go dot-product kernel instead. One
// thing can still differ from that kernel: where two NaNs with different
// payloads meet in one sum, the forward order (product + o) keeps the
// later term's payload and the dot product (s + product) the earlier's.
// Finite weights produce such a pair only from NaN gradients.

// matmulRows computes rows [lo,hi) of out += a·b over row-major slices
// (a is ·×kk, b is kk×n). The assembly kernel takes the first n&^15
// columns where it exists, and the Go loop below finishes the rest; it
// works in ikj order, two a columns per pass. The pair loop is axpy2's
// body written out in place: a call per pair cost the float32 serving
// sweep ~13 % at corpus graph sizes.
func matmulRows[T Float](a, b, out []T, kk, n, lo, hi int) {
	j0 := matmulRowsAsm(a[lo*kk:], b, out[lo*n:], kk, n, hi-lo, 1, kk)
	if j0 == n {
		return
	}
	for i := lo; i < hi; i++ {
		arow := a[i*kk : (i+1)*kk]
		orow := out[i*n+j0 : (i+1)*n]
		k := 0
		for ; k+1 < kk; k += 2 {
			a0, a1 := arow[k], arow[k+1]
			if a0 == 0 || a1 == 0 {
				if a0 != 0 {
					axpy(a0, b[k*n+j0:(k+1)*n], orow)
				} else if a1 != 0 {
					axpy(a1, b[(k+1)*n+j0:(k+2)*n], orow)
				}
				continue
			}
			b0 := b[k*n+j0 : (k+1)*n][:len(orow)]
			b1 := b[(k+1)*n+j0 : (k+2)*n][:len(orow)]
			j := 0
			for ; j+3 < len(orow); j += 4 {
				o0 := orow[j] + a0*b0[j] + a1*b1[j]
				o1 := orow[j+1] + a0*b0[j+1] + a1*b1[j+1]
				o2 := orow[j+2] + a0*b0[j+2] + a1*b1[j+2]
				o3 := orow[j+3] + a0*b0[j+3] + a1*b1[j+3]
				orow[j], orow[j+1], orow[j+2], orow[j+3] = o0, o1, o2, o3
			}
			for ; j < len(orow); j++ {
				orow[j] = orow[j] + a0*b0[j] + a1*b1[j]
			}
		}
		if k < kk && arow[k] != 0 {
			axpy(arow[k], b[k*n+j0:(k+1)*n], orow)
		}
	}
}

// axpy computes y += a·x over len(y) elements, 4-wide unrolled.
func axpy[T Float](a T, x, y []T) {
	x = x[:len(y)]
	j := 0
	for ; j+3 < len(y); j += 4 {
		y0 := y[j] + a*x[j]
		y1 := y[j+1] + a*x[j+1]
		y2 := y[j+2] + a*x[j+2]
		y3 := y[j+3] + a*x[j+3]
		y[j], y[j+1], y[j+2], y[j+3] = y0, y1, y2, y3
	}
	for ; j < len(y); j++ {
		y[j] += a * x[j]
	}
}

// axpy2 computes y += a0·x0, then y += a1·x1, where x0 and x1 are the
// two consecutive len(y)-long rows at the head of x, in one 4-wide
// unrolled pass: each element loads and stores once for two terms. A zero
// coefficient drops its term, exactly as two separate axpy calls guarded
// by a != 0 would. Passing the rows as one slice keeps every argument in
// registers; a separate x1 slice spills to the stack.
func axpy2[T Float](a0, a1 T, x, y []T) {
	n := len(y)
	x0, x1 := x[:n], x[n:2*n]
	switch {
	case a0 == 0 && a1 == 0:
		return
	case a0 == 0:
		axpy(a1, x1, y)
		return
	case a1 == 0:
		axpy(a0, x0, y)
		return
	}
	j := 0
	for ; j+3 < len(y); j += 4 {
		y0 := y[j] + a0*x0[j] + a1*x1[j]
		y1 := y[j+1] + a0*x0[j+1] + a1*x1[j+1]
		y2 := y[j+2] + a0*x0[j+2] + a1*x1[j+2]
		y3 := y[j+3] + a0*x0[j+3] + a1*x1[j+3]
		y[j], y[j+1], y[j+2], y[j+3] = y0, y1, y2, y3
	}
	for ; j < len(y); j++ {
		y[j] = y[j] + a0*x0[j] + a1*x1[j] // not +=: that adds a0·x0+a1·x1 first
	}
}

// MatMulTA returns aᵀ·b (a is k×m, b is k×n, result m×n).
func MatMulTA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTAAddInto(a, b, out)
	return out
}

// MatMulTAAddInto accumulates out += aᵀ·b (a is k×m, b is k×n, out m×n)
// — the shape of every weight-gradient accumulation. From
// reductionThreshold up it splits the k rows into shape-determined
// chunks, sums each into pooled zeroed scratch (out is only m×n) and adds
// each chunk's partial into out in chunk order, so results are
// bit-identical on every machine.
func MatMulTAAddInto[T Float](a, b, out *MatrixOf[T]) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTA %dx%d · %dx%d into %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	work := a.Rows * a.Cols * b.Cols
	if work < reductionThreshold {
		matmulTARange(a, b, out, 0, a.Rows)
		return
	}
	pool := scratchPool[T]()
	buf := getScratch[T](pool)
	defer pool.Put(buf)
	chunk := reductionChunks(a.Rows, work)
	for lo := 0; lo < a.Rows; lo += chunk {
		s := buf.GetZeroed(out.Rows, out.Cols)
		matmulTARange(a, b, s, lo, min(lo+chunk, a.Rows))
		for i, v := range s.Data {
			out.Data[i] += v
		}
	}
}

// matmulTARange accumulates rows [lo, hi) of a into out += aᵀ·b. The
// assembly kernel takes the first n&^15 columns where it exists, reading
// column i of a as output row i's coefficients; the Go loops finish the
// rest one k row at a time, or run every column two k rows per pass
// through axpy2.
func matmulTARange[T Float](a, b, out *MatrixOf[T], lo, hi int) {
	m, n := a.Cols, b.Cols
	if j0 := matmulRowsAsm(a.Data[lo*m:], b.Data[lo*n:], out.Data, hi-lo, n, m, m, 1); j0 > 0 {
		for k := lo; k < hi && j0 < n; k++ {
			brow := b.Data[k*n+j0 : (k+1)*n]
			for i, av := range a.Data[k*m : (k+1)*m] {
				if av != 0 {
					axpy(av, brow, out.Data[i*n+j0:(i+1)*n])
				}
			}
		}
		return
	}
	k := lo
	for ; k+1 < hi; k += 2 {
		a0, a1 := a.Data[k*m:(k+1)*m], a.Data[(k+1)*m:(k+2)*m]
		b01 := b.Data[k*n : (k+2)*n]
		for i, av := range a0 {
			if av != 0 || a1[i] != 0 {
				axpy2(av, a1[i], b01, out.Data[i*n:(i+1)*n])
			}
		}
	}
	if k < hi {
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range a.Data[k*m : (k+1)*m] {
			if av != 0 {
				axpy(av, brow, out.Data[i*n:(i+1)*n])
			}
		}
	}
}

// MatMulTB returns a·bᵀ (a is m×k, b is n×k, result m×n).
func MatMulTB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTBInto(a, b, out)
	return out
}

// MatMulTBInto overwrites out = a·bᵀ (a is m×k, b is n×k, out m×n) on
// the calling goroutine; every output row is an independent dot-product
// sweep. With the AVX2 kernel it runs as out = a·(bᵀ) on the forward
// path, unless b holds a non-finite value (see the order rule above
// matmulRows).
func MatMulTBInto[T Float](a, b, out *MatrixOf[T]) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTB %dx%d · %dx%d into %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	if useAVX2 && matmulTBForward(a, b, out) {
		return
	}
	matmulTBRange(a, b, out, 0, a.Rows)
}

// scratch64 and scratch32 pool the kernels' temporaries, one pool per
// precision, so the steady state allocates nothing: matmulTBForward's bᵀ
// and the chunk partials of MatMulTAAddInto and ScatterAddRows. No
// kernel holds one while calling another that takes one.
var scratch64, scratch32 sync.Pool

// scratchPool returns the scratch pool of precision T.
func scratchPool[T Float]() *sync.Pool {
	if _, ok := any(T(0)).(float32); ok {
		return &scratch32
	}
	return &scratch64
}

// getScratch takes a buffer from pool, or a new one if it is empty.
func getScratch[T Float](pool *sync.Pool) *BufOf[T] {
	if buf, ok := pool.Get().(*BufOf[T]); ok {
		return buf
	}
	return new(BufOf[T])
}

// matmulTBForward computes out = a·bᵀ as out = 0, out += a·bt with bt =
// bᵀ, and reports whether it did: it leaves out alone and returns false
// when b holds ±Inf or NaN. When n = b.Rows is not a multiple of 16, bt's
// columns are zero-padded to the next one and the product runs into
// zeroed scratch of that width, whose n real columns are copied to out, so
// the AVX2 kernel computes every column with the additions it always
// makes.
func matmulTBForward[T Float](a, b, out *MatrixOf[T]) bool {
	m, kk, n := a.Rows, a.Cols, b.Rows
	n16 := (n + 15) &^ 15
	rows := kk // bt, then the padded product when n16 != n
	if n16 != n {
		rows += m
	}
	pool := scratchPool[T]()
	buf := getScratch[T](pool)
	defer pool.Put(buf)
	s := buf.GetZeroed(rows, n16).Data
	bt, prod := s[:kk*n16], s[kk*n16:]
	var nonFinite T // stays 0 unless some v·0 is NaN
	for j := 0; j < n; j++ {
		for k, v := range b.Row(j) {
			bt[k*n16+j] = v
			nonFinite += v * 0
		}
	}
	if nonFinite != 0 {
		return false
	}
	if n16 == n {
		out.Zero()
		prod = out.Data
	}
	matmulRows(a.Data, bt, prod, kk, n16, 0, m)
	if n16 != n {
		for i := 0; i < m; i++ {
			copy(out.Data[i*n:(i+1)*n], prod[i*n16:])
		}
	}
	return true
}

// matmulTBRange computes rows [lo, hi) of out = a·bᵀ, four output
// columns per sweep of the a row with one accumulator each. Every term is
// added, zero or not, as the plain dot-product loop does.
func matmulTBRange[T Float](a, b, out *MatrixOf[T], lo, hi int) {
	kk, n := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*kk : (i+1)*kk]
		orow := out.Data[i*n : (i+1)*n]
		j := 0
		for ; j+3 < n; j += 4 {
			b0 := b.Data[j*kk : (j+1)*kk][:len(arow)]
			b1 := b.Data[(j+1)*kk : (j+2)*kk][:len(arow)]
			b2 := b.Data[(j+2)*kk : (j+3)*kk][:len(arow)]
			b3 := b.Data[(j+3)*kk : (j+4)*kk][:len(arow)]
			var s0, s1, s2, s3 T
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*kk : (j+1)*kk][:len(arow)]
			var s T
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// RNG is a deterministic xoshiro256**-style generator used for
// reproducible weight initialization.
type RNG struct{ s [4]uint64 }

// NewRNG seeds a generator; the same seed yields the same stream on every
// platform.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)) in place —
// Perm without the allocation, for the per-epoch shuffle. It consumes the
// same RNG stream as Perm, so swapping one for the other never changes a
// seeded run.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// FillUniform fills m with uniform values in [-a, a].
func (m *MatrixOf[T]) FillUniform(r *RNG, a float64) {
	for i := range m.Data {
		m.Data[i] = T((2*r.Float64() - 1) * a)
	}
}

// XavierInit fills m with the Glorot uniform distribution for a layer with
// the given fan-in and fan-out.
func (m *MatrixOf[T]) XavierInit(r *RNG, fanIn, fanOut int) {
	a := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.FillUniform(r, a)
}
