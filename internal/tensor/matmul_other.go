//go:build !amd64

package tensor

// useAVX2 is always false off amd64, where no assembly kernel exists.
var useAVX2 = false

// matmulRowsAsm runs nothing off amd64 and returns 0: the Go kernels
// compute every column.
func matmulRowsAsm[T Float](a, b, out []T, kk, n, rows, ka, ra int) int { return 0 }

// gatherRowsAsm runs nothing off amd64: the Go loop gathers every row.
func gatherRowsAsm[T Float](ptr, idx []int32, norm []float64, h, out *MatrixOf[T], lo, hi int) int {
	return lo
}
