package tensor

// useAVX2 routes matmulRows, matmulTARange and MatMulTBInto through the
// assembly row kernels when the CPU and the OS support AVX2. Tests clear
// it to run the Go kernels on the same machine.
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
