package tensor

// useAVX2 routes matmulRows, matmulTARange, MatMulTBInto and GatherRows
// through the assembly row kernels when the CPU and the OS support AVX2.
// Tests clear it to run the Go kernels on the same machine.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func matmulRowsF64(a, b, out *float64, kk, n, rows, ka, ra int)

//go:noescape
func matmulRowsF32(a, b, out *float32, kk, n, rows, ka, ra int)

// matmulRowsAsm computes columns [0, n&^15) of the first rows rows of
// out += a·b in the AVX2 kernel and returns the first column it left to
// the Go kernel: n&^15, or 0 when it ran nothing. b (kk×n) and out are
// row-major; a[i, k] is a[i*ra+k*ka].
func matmulRowsAsm[T Float](a, b, out []T, kk, n, rows, ka, ra int) int {
	if !useAVX2 || n < 16 || kk == 0 || rows <= 0 {
		return 0
	}
	_, _, _ = a[(rows-1)*ra+(kk-1)*ka], b[kk*n-1], out[rows*n-1] // every element the kernel touches
	switch a := any(a).(type) {
	case []float64:
		matmulRowsF64(&a[0], &any(b).([]float64)[0], &any(out).([]float64)[0], kk, n, rows, ka, ra)
	case []float32:
		matmulRowsF32(&a[0], &any(b).([]float32)[0], &any(out).([]float32)[0], kk, n, rows, ka, ra)
	}
	return n &^ 15
}

//go:noescape
func gatherRowsF32(ptr, idx *int32, norm *float64, h, out *float32, cols, hRows, nIdx, lo, hi int) int

// gatherRowsAsm runs rows [lo, hi) of GatherRows on the AVX2 kernel for
// float32 rows 1 to 16 wide and returns the first row it left to the Go
// loop: hi, lo when it ran nothing, or a row whose list bounds or
// neighbour index are out of range, for the Go loop's bounds check.
func gatherRowsAsm[T Float](ptr, idx []int32, norm []float64, h, out *MatrixOf[T], lo, hi int) int {
	o, ok := any(out.Data).([]float32)
	if !ok || !useAVX2 || out.Cols == 0 || out.Cols > 16 || lo == hi || len(idx) == 0 || h.Rows == 0 {
		return lo
	}
	hd := any(h.Data).([]float32)
	_, _ = hd[h.Rows*h.Cols-1], o[hi*out.Cols-1] // every element the kernel touches
	return gatherRowsF32(&ptr[0], &idx[0], &norm[0], &hd[0], &o[0], out.Cols, h.Rows, len(idx), lo, hi)
}
