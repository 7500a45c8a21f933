package tensor

// useAVX2 routes matmulRows through the assembly row kernels when the CPU
// and the OS support AVX2. Tests clear it to run the Go kernel on the
// same machine.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func matmulRowsF64(a, b, out *float64, kk, n, rows int)

//go:noescape
func matmulRowsF32(a, b, out *float32, kk, n, rows int)

// matmulRowsAsm computes columns [0, n&^15) of rows [lo, hi) of out += a·b
// in the AVX2 kernel and returns the first column it left to the Go
// kernel: n&^15, or 0 when it ran nothing.
func matmulRowsAsm[T Float](a, b, out []T, kk, n, lo, hi int) int {
	if !useAVX2 || n < 16 || kk == 0 || lo >= hi {
		return 0
	}
	_, _, _ = a[hi*kk-1], b[kk*n-1], out[hi*n-1] // every element the kernel touches
	switch a := any(a).(type) {
	case []float64:
		matmulRowsF64(&a[lo*kk], &any(b).([]float64)[0], &any(out).([]float64)[lo*n], kk, n, hi-lo)
	case []float32:
		matmulRowsF32(&a[lo*kk], &any(b).([]float32)[0], &any(out).([]float32)[lo*n], kk, n, hi-lo)
	}
	return n &^ 15
}
