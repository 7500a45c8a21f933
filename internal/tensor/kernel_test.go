package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// The ref* kernels are plain one-column loops. They define the summation
// order every output element of the blocked kernels must keep: k
// ascending, left to right, and a zero a value contributes no term.

func refRange(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func refTARange[T Float](a, b, out *MatrixOf[T], lo, hi int) {
	for k := lo; k < hi; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func refTBRange[T Float](a, b, out *MatrixOf[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s T
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// refTA is MatMulTAAddInto's reduction with refTARange inside: tall
// operands sum shape-determined chunks into zeroed scratch and merge them
// into out in chunk order.
func refTA[T Float](a, b, out *MatrixOf[T]) {
	work := a.Rows * a.Cols * b.Cols
	if work < reductionThreshold {
		refTARange(a, b, out, 0, a.Rows)
		return
	}
	chunk := reductionChunks(a.Rows, work)
	for lo := 0; lo < a.Rows; lo += chunk {
		s := NewOf[T](out.Rows, out.Cols)
		refTARange(a, b, s, lo, min(lo+chunk, a.Rows))
		out.AddInPlace(s)
	}
}

func ref32(a, b, out *MatrixOf[float32]) {
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += av * bv
			}
		}
	}
}

// sparseFill fills m with uniform values in [-1, 1] of which about 30 %
// are exact zeros, a sixth of those -0.0, so adjacent zero pairs and lone
// zeros in either slot of a pair all occur.
func sparseFill(m *Matrix, r *RNG) {
	for i := range m.Data {
		switch u := r.Float64(); {
		case u < 0.05:
			m.Data[i] = math.Copysign(0, -1)
		case u < 0.3:
			m.Data[i] = 0
		default:
			m.Data[i] = 2*r.Float64() - 1
		}
	}
}

// bitsArch reports whether the kernels must match their references bit
// for bit: on amd64 Go never fuses x*y+z into an FMA at the default
// GOAMD64 level; elsewhere it may, and the last bit can differ.
const bitsArch = runtime.GOARCH == "amd64"

func sameFloats(got, want []float64) error {
	for i, w := range want {
		g := got[i]
		if bitsArch {
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("[%d] = %v (%#x), reference %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		} else if math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("[%d] = %v, reference %v", i, g, w)
		}
	}
	return nil
}

func sameFloats32(got, want []float32) error {
	for i, w := range want {
		g := got[i]
		if bitsArch {
			if math.Float32bits(g) != math.Float32bits(w) {
				return fmt.Errorf("[%d] = %v (%#x), reference %v (%#x)", i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		} else if math.Abs(float64(g-w)) > 1e-5*math.Max(1, math.Abs(float64(w))) {
			return fmt.Errorf("[%d] = %v, reference %v", i, g, w)
		}
	}
	return nil
}

// sameBits is sameFloats or sameFloats32, by T.
func sameBits[T Float](got, want []T) error {
	if g, ok := any(got).([]float32); ok {
		return sameFloats32(g, any(want).([]float32))
	}
	return sameFloats(any(got).([]float64), any(want).([]float64))
}

// checkKernels runs every kernel on one m×k·k×n problem against its
// reference, accumulating into the same non-zero out on both sides.
func checkKernels(r *RNG, m, k, n int) error {
	a, b, b2 := New(m, k), New(k, n), New(n, k)
	sparseFill(a, r)
	sparseFill(b, r)
	sparseFill(b2, r)
	out := New(m, n)
	sparseFill(out, r)

	got, want := out.Clone(), out.Clone()
	MatMulAddInto(a, b, got)
	refRange(a, b, want, 0, m)
	if err := sameFloats(got.Data, want.Data); err != nil {
		return fmt.Errorf("MatMulAddInto %dx%d·%dx%d: %v", m, k, k, n, err)
	}

	// aᵀ·c with a as the m×k left operand: the reduction runs over m.
	c := New(m, n)
	sparseFill(c, r)
	acc := New(k, n)
	sparseFill(acc, r)
	got, want = acc.Clone(), acc.Clone()
	MatMulTAAddInto(a, c, got)
	refTA(a, c, want)
	if err := sameFloats(got.Data, want.Data); err != nil {
		return fmt.Errorf("MatMulTAAddInto %dx%dᵀ·%dx%d: %v", m, k, m, n, err)
	}

	got, want = out.Clone(), out.Clone()
	MatMulTBInto(a, b2, got)
	refTBRange(a, b2, want, 0, m)
	if err := sameFloats(got.Data, want.Data); err != nil {
		return fmt.Errorf("MatMulTBInto %dx%d·(%dx%d)ᵀ: %v", m, k, n, k, err)
	}

	a32, b32 := Convert[float32](a), Convert[float32](b)
	got32, want32 := Convert[float32](out), Convert[float32](out)
	MatMulAddInto(a32, b32, got32)
	ref32(a32, b32, want32)
	if err := sameFloats32(got32.Data, want32.Data); err != nil {
		return fmt.Errorf("float32 MatMulAddInto %dx%d·%dx%d: %v", m, k, k, n, err)
	}
	return nil
}

// kernelPaths are the two kernels a test or benchmark can pin: "asm"
// leaves useAVX2 as the CPU check set it, "go" clears it so the Go loops
// compute every column of all three products.
var kernelPaths = []struct {
	name string
	asm  bool
}{{"asm", true}, {"go", false}}

// useKernel runs the kernels named by asm and returns the restore.
// It skips the "asm" path on a machine without the AVX2 kernel, where it
// would only repeat the "go" path.
func useKernel(tb testing.TB, asm bool) (restore func()) {
	if asm && !useAVX2 {
		tb.Skipf("no AVX2 kernel on this %s machine", runtime.GOARCH)
	}
	old := useAVX2
	useAVX2 = asm
	return func() { useAVX2 = old }
}

// TestQuickKernelsMatchReference holds the blocked kernels to the plain
// loops bit for bit: same summation order, same zero skip. Shapes cover
// odd and even k (a trailing unpaired column or row), every n % 4
// remainder and n on both sides of the AVX2 kernel's sixteen-column
// block; a fixed tall case crosses reductionThreshold so
// MatMulTAAddInto's chunked reduction engages. The "gather" subtests
// hold GatherRows to refGather on random CSR row ranges 1 to 20 wide.
// The kernels run on the calling goroutine, so the worker cap must change
// nothing; each cap runs on the AVX2 kernel and again on the Go ones.
func TestQuickKernelsMatchReference(t *testing.T) {
	if !bitsArch {
		t.Logf("comparing within 1e-12 relative, not bit for bit: Go may fuse x*y+z into FMA on %s", runtime.GOARCH)
	}
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workercap=%d", workers), func(t *testing.T) {
			defer SetWorkerCap(workers)()
			for _, path := range kernelPaths {
				t.Run(path.name, func(t *testing.T) {
					defer useKernel(t, path.asm)()
					f := func(seed uint64) bool {
						r := NewRNG(seed)
						m, k, n := 1+r.Intn(40), 1+r.Intn(37), 1+r.Intn(37)
						if err := checkKernels(r, m, k, n); err != nil {
							t.Logf("seed %d: %v", seed, err)
							return false
						}
						return true
					}
					if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
						t.Fatal(err)
					}
					for _, s := range [][3]int{{1100, 13, 16}, {600, 37, 23}} {
						if err := checkKernels(NewRNG(uint64(s[0])), s[0], s[1], s[2]); err != nil {
							t.Fatal(err)
						}
					}
					t.Run("gather", func(t *testing.T) {
						f := func(seed uint64) bool {
							if err := checkGather(NewRNG(seed)); err != nil {
								t.Logf("seed %d: %v", seed, err)
								return false
							}
							return true
						}
						if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
							t.Fatal(err)
						}
					})
				})
			}
		})
	}
}

// edgeFill fills m from vals, starting at offset off and stepping by 7,
// so rows, columns and neighbouring elements all meet different values
// as long as len(vals) is not a multiple of 7.
func edgeFill[T Float](m *MatrixOf[T], vals []T, off int) {
	for i := range m.Data {
		m.Data[i] = vals[(off+7*i)%len(vals)]
	}
}

// The edge value sets, one per operand role of the forward product:
// three NaNs with distinct payloads, one in each role, so a wrong factor
// or addend order surfaces as the wrong payload; ±0 where a term is
// skipped; ±Inf and 1e300 where products overflow or meet a zero. None
// has a multiple of 7 elements (see edgeFill).
var (
	nanA64 = math.Float64frombits(0x7ff8_0000_0000_00a1)
	nanB64 = math.Float64frombits(0xfff8_0000_0000_00b2)
	nanO64 = math.Float64frombits(0x7ff8_0000_0000_00c3)
	neg0   = math.Copysign(0, -1)
	inf    = math.Inf(1)

	edgeA = []float64{1.5, nanA64, neg0, -2.25, 0, 0.1, -3, nanA64, 7}
	edgeB = []float64{0.75, nanB64, inf, -1.125, math.Inf(-1), 1e300, -0.3, 2, nanB64, neg0, 5}
	edgeO = []float64{nanO64, 0.5, neg0, -4, 1e-300, 3.25, inf, -0.125}
)

// edgeSet converts vals to T. A float32 NaN keeps its float64 twin's sign
// and low payload bits (0x7ff8…a1 becomes 0x7fc000a1), which a plain
// conversion would drop.
func edgeSet[T Float](vals []float64) []T {
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = T(v)
		if p, ok := any(&out[i]).(*float32); ok && v != v {
			bits := math.Float64bits(v)
			*p = math.Float32frombits(uint32(bits>>63)<<31 | 0x7fc0_0000 | uint32(bits&0xfff))
		}
	}
	return out
}

// alignGoNaNs copies want's NaN into got wherever both are NaN in a
// column the Go kernel computed (column goCol on). gc commutes a scalar
// multiply or add when it allocates registers, and the pair loop's four
// unrolled lanes do not even agree, so which of two meeting NaNs survives
// is not an invariant of the Go kernel. It is one of the AVX2 kernel,
// whose columns keep their payloads.
func alignGoNaNs[T Float](got, want []T, n, goCol int) {
	for i := range got {
		if i%n >= goCol && got[i] != got[i] && want[i] != want[i] {
			got[i] = want[i]
		}
	}
}

// TestMatMulEdgeCasesBitExact pins the forward kernel to refRange and
// ref32 bit for bit on the values whose handling the order rule exists
// for: three NaNs with distinct payloads, one each in a, b and out, so a
// wrong factor or addend order in the AVX2 kernel surfaces as the wrong
// payload; ±0 in a, whose term is skipped even against ±Inf in b; and
// ±Inf in b against a finite or NaN a. k = 0 and 1 are the empty and
// single-term sums; n runs one below, at and above the sixteen-column
// block and across several blocks with a tail, so the AVX2 kernel's
// columns and the Go tail meet in one row.
func TestMatMulEdgeCasesBitExact(t *testing.T) {
	a32Vals, b32Vals, o32Vals := edgeSet[float32](edgeA), edgeSet[float32](edgeB), edgeSet[float32](edgeO)

	for _, path := range kernelPaths {
		t.Run(path.name, func(t *testing.T) {
			defer useKernel(t, path.asm)()
			for _, n := range []int{15, 16, 17, 31, 33, 127} {
				goCol := 0
				if path.asm {
					goCol = n &^ 15
				}
				for _, k := range []int{0, 1, 2, 5} {
					const m = 5
					a, b, out := New(m, k), New(k, n), New(m, n)
					edgeFill(a, edgeA, 0)
					edgeFill(b, edgeB, k)
					edgeFill(out, edgeO, n)
					got, want := out.Clone(), out.Clone()
					MatMulAddInto(a, b, got)
					refRange(a, b, want, 0, m)
					alignGoNaNs(got.Data, want.Data, n, goCol)
					if err := sameFloats(got.Data, want.Data); err != nil {
						t.Errorf("float64 %dx%d·%dx%d: %v", m, k, k, n, err)
					}

					a32, b32, out32 := NewOf[float32](m, k), NewOf[float32](k, n), NewOf[float32](m, n)
					edgeFill(a32, a32Vals, 0)
					edgeFill(b32, b32Vals, k)
					edgeFill(out32, o32Vals, n)
					got32, want32 := out32.Clone(), out32.Clone()
					MatMulAddInto(a32, b32, got32)
					ref32(a32, b32, want32)
					alignGoNaNs(got32.Data, want32.Data, n, goCol)
					if err := sameFloats32(got32.Data, want32.Data); err != nil {
						t.Errorf("float32 %dx%d·%dx%d: %v", m, k, k, n, err)
					}
				}
			}
		})
	}
}

// TestMatMulBackwardEdgeCasesBitExact pins the two backward products to
// their plain loops, refTA and refTBRange, on the edge value sets, at both
// precisions and on both kernels, over the forward table's k and n and
// three more n (1, 12 and 21) on each side of the first sixteen-column
// block.
//
//   - dW += xᵀ·dY (MatMulTAAddInto) takes x from edgeA, dY from edgeB and
//     dW from edgeO: the forward roles, with a's column as the kernel row.
//   - dX = dY·Wᵀ (MatMulTBInto) with a finite W (edgeW, with ±0) takes
//     dY from edgeDY (two NaN payloads, ±0, ±Inf); the AVX2 kernel runs it
//     as the forward product of bᵀ, skipping the zero dY terms the plain
//     loop adds, with bᵀ's columns zero-padded to a multiple of sixteen
//     when n is not one.
//   - dX = dY·Wᵀ with ±Inf and NaN in W (edgeB) beside a dY that is
//     mostly ±0 (edgeZeroDY): the plain loop adds 0·Inf = NaN, which the
//     forward product would skip, so this pins the fallback to the Go
//     dot-product kernel, and at n = 15 (the first RGCN layer's weight)
//     matmulTBForward must refuse it outright.
//
// Columns the AVX2 kernel computed for dW must carry the plain loop's
// payload. Columns a Go kernel computed are compared NaN-to-NaN
// (alignGoNaNs): gc does not keep one operand order across the unrolled
// lanes of axpy, axpy2 and the pair loop, so which of two meeting NaNs
// survives is no invariant of those loops. dX is compared NaN-to-NaN on
// every column: where two NaN payloads meet, the forward kernel keeps the
// later term's and the plain dot product the earlier's (see the order
// rule in tensor.go), and every other bit must match.
func TestMatMulBackwardEdgeCasesBitExact(t *testing.T) {
	for _, path := range kernelPaths {
		t.Run(path.name, func(t *testing.T) {
			defer useKernel(t, path.asm)()
			bothPrecisions(t, backwardEdgeCases[float64], backwardEdgeCases[float32])
		})
	}
}

var (
	edgeDY     = []float64{1.5, nanA64, neg0, -2.25, 0, inf, 0.1, -3, nanB64, 7, math.Inf(-1), 1e300}
	edgeW      = []float64{0.75, -1.125, 1e300, -0.3, 2, neg0, 5, 0}
	edgeZeroDY = []float64{0, neg0, 0, 1.5, neg0, 0}
)

func backwardEdgeCases[T Float](t *testing.T) {
	const m = 5
	xs, dys, dws := edgeSet[T](edgeA), edgeSet[T](edgeB), edgeSet[T](edgeO)
	for _, n := range []int{1, 12, 15, 16, 17, 21, 31, 33, 127} {
		asmCol := 0 // columns [0, asmCol) come from the AVX2 kernel
		if useAVX2 {
			asmCol = n &^ 15
		}
		for _, k := range []int{0, 1, 2, 5} {
			x, dy, dw := NewOf[T](k, m), NewOf[T](k, n), NewOf[T](m, n)
			edgeFill(x, xs, 0)
			edgeFill(dy, dys, k)
			edgeFill(dw, dws, n)
			got, want := dw.Clone(), dw.Clone()
			MatMulTAAddInto(x, dy, got)
			refTA(x, dy, want)
			alignGoNaNs(got.Data, want.Data, n, asmCol)
			if err := sameBits(got.Data, want.Data); err != nil {
				t.Errorf("MatMulTAAddInto %dx%dᵀ·%dx%d: %v", k, m, k, n, err)
			}

			for _, c := range []struct {
				name  string
				dy, w []float64
			}{
				{"finite W", edgeDY, edgeW},
				{"non-finite W", edgeZeroDY, edgeB},
			} {
				dy, w := NewOf[T](m, k), NewOf[T](n, k)
				edgeFill(dy, edgeSet[T](c.dy), 0)
				edgeFill(w, edgeSet[T](c.w), k)
				got, want := NewOf[T](m, n), NewOf[T](m, n)
				edgeFill(got, dws, n) // every element must be overwritten
				MatMulTBInto(dy, w, got)
				refTBRange(dy, w, want, 0, m)
				alignGoNaNs(got.Data, want.Data, n, 0)
				if err := sameBits(got.Data, want.Data); err != nil {
					t.Errorf("MatMulTBInto %s %dx%d·(%dx%d)ᵀ: %v", c.name, m, k, n, k, err)
				}
				if c.name == "non-finite W" && n == 15 && k > 0 && matmulTBForward(dy, w, got) {
					t.Errorf("matmulTBForward ran a non-finite %dx%d W instead of leaving it to matmulTBRange", n, k)
				}
			}
		}
	}
}

// TestMatMulBackwardAllocFree: both backward products and the chunked
// scatter allocate nothing after warm-up, on both kernels and at both
// precisions. MatMulTBInto takes its bᵀ scratch (on the AVX2 kernel),
// and MatMulTAAddInto and ScatterAddRows their chunk partials, from a
// sync.Pool. The small shapes are the 127-class head's at 32 rows; the
// first RGCN layer's input gradient (1100 rows, W with 15 rows) runs the
// padded bᵀ path; the chunked ones are an RGCN weight gradient (1100
// rows, 8 chunks), the head's at 64 rows (2 chunks) and an
// embedding-gradient scatter over 1100 node rows. Under the race detector sync.Pool drops about a
// quarter of its Puts on purpose, costing two allocations each time;
// AllocsPerRun's whole-number average over 100 runs still reads 0 unless
// half the Puts are dropped.
func TestMatMulBackwardAllocFree(t *testing.T) {
	for _, path := range kernelPaths {
		t.Run(path.name, func(t *testing.T) {
			defer useKernel(t, path.asm)()
			bothPrecisions(t, backwardAllocFree[float64], backwardAllocFree[float32])
		})
	}
}

func backwardAllocFree[T Float](t *testing.T) {
	r := NewRNG(4)
	dy, w, dx := Convert[T](randMat(32, 127, r)), Convert[T](randMat(16, 127, r)), NewOf[T](32, 16)
	x, dw := Convert[T](randMat(32, 16, r)), NewOf[T](16, 127)
	if n := testing.AllocsPerRun(100, func() { MatMulTBInto(dy, w, dx) }); n != 0 {
		t.Errorf("MatMulTBInto 32x127·(16x127)ᵀ allocates %v times per call", n)
	}
	dy1, w1, dx1 := Convert[T](randMat(1100, 16, r)), Convert[T](randMat(15, 16, r)), NewOf[T](1100, 15)
	if n := testing.AllocsPerRun(100, func() { MatMulTBInto(dy1, w1, dx1) }); n != 0 {
		t.Errorf("MatMulTBInto 1100x16·(15x16)ᵀ allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { MatMulTAAddInto(x, dy, dw) }); n != 0 {
		t.Errorf("MatMulTAAddInto 32x16ᵀ·32x127 allocates %v times per call", n)
	}
	for _, s := range []struct{ k, m, n int }{{1100, 16, 16}, {64, 16, 127}} {
		if s.k*s.m*s.n < reductionThreshold {
			t.Fatalf("%dx%dᵀ·%dx%d is below reductionThreshold", s.k, s.m, s.k, s.n)
		}
		x, dy, dw := Convert[T](randMat(s.k, s.m, r)), Convert[T](randMat(s.k, s.n, r)), NewOf[T](s.m, s.n)
		if n := testing.AllocsPerRun(100, func() { MatMulTAAddInto(x, dy, dw) }); n != 0 {
			t.Errorf("MatMulTAAddInto %dx%dᵀ·%dx%d allocates %v times per call", s.k, s.m, s.k, s.n, n)
		}
	}
	const rows, cols, vocab = 1100, 32, 60
	if rows*cols < reductionChunkWork {
		t.Fatalf("scatter %dx%d is below reductionChunkWork", rows, cols)
	}
	src, table := Convert[T](randMat(rows, cols+3, r)), NewOf[T](vocab, cols+3)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = r.Intn(vocab)
	}
	if n := testing.AllocsPerRun(100, func() { ScatterAddRows(table, idx, src, cols) }); n != 0 {
		t.Errorf("ScatterAddRows %d rows x %d cols allocates %v times per call", rows, cols, n)
	}
}

// kernelShapes are the training shapes that dominate a fold, as m×k·k×n:
// one RGCN relation transform, the first layer's (embedding width 12 plus
// the 3-wide node-kind tag) and a 127-class head.
var kernelShapes = []struct {
	name    string
	m, k, n int
}{
	{"rgcn-1100x16x16", 1100, 16, 16},
	{"first-1100x15x16", 1100, 15, 16},
	{"head-64x16x127", 64, 16, 127},
}

func benchKernel(b *testing.B, run func(m, k, n int) func()) {
	for _, s := range kernelShapes {
		b.Run(s.name, func(b *testing.B) {
			step := run(s.m, s.k, s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			macs := float64(s.m*s.k*s.n) * float64(b.N)
			b.ReportMetric(macs/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkMatMulAddInto times the forward transform out += x·W on the
// AVX2 kernel ("asm") and on the Go one ("go").
func BenchmarkMatMulAddInto(b *testing.B) {
	for _, path := range kernelPaths {
		b.Run(path.name, func(b *testing.B) {
			defer useKernel(b, path.asm)()
			benchKernel(b, func(m, k, n int) func() {
				r := NewRNG(1)
				x, w, out := randMat(m, k, r), randMat(k, n, r), New(m, n)
				return func() { MatMulAddInto(x, w, out) }
			})
		})
	}
}

// BenchmarkMatMulTAAddInto times the weight gradient dW += xᵀ·dY on the
// AVX2 kernel ("asm") and on the Go one ("go").
func BenchmarkMatMulTAAddInto(b *testing.B) {
	for _, path := range kernelPaths {
		b.Run(path.name, func(b *testing.B) {
			defer useKernel(b, path.asm)()
			benchKernel(b, func(m, k, n int) func() {
				r := NewRNG(2)
				x, dy, dw := randMat(m, k, r), randMat(m, n, r), New(k, n)
				return func() { MatMulTAAddInto(x, dy, dw) }
			})
		})
	}
}

// BenchmarkMatMulTBInto times the input gradient dX = dY·Wᵀ on the AVX2
// kernel ("asm") and on the Go one ("go"). On the AVX2 kernel the first
// layer's shape (W has 15 rows) pads bᵀ to sixteen columns.
func BenchmarkMatMulTBInto(b *testing.B) {
	for _, path := range kernelPaths {
		b.Run(path.name, func(b *testing.B) {
			defer useKernel(b, path.asm)()
			benchKernel(b, func(m, k, n int) func() {
				r := NewRNG(3)
				dy, w, dx := randMat(m, n, r), randMat(k, n, r), New(m, k)
				return func() { MatMulTBInto(dy, w, dx) }
			})
		})
	}
}
