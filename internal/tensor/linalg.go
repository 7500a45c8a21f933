package tensor

import "math"

// CholeskyInto factors the symmetric positive-definite matrix a into its
// lower-triangular Cholesky factor L (a = L·Lᵀ), writing L into l (upper
// triangle zeroed). It returns false — leaving l unspecified — when a is
// not positive definite (a non-positive pivot), which for ridge normal
// equations (XᵀX + λI, λ > 0) can only mean severe ill-conditioning.
// a and l must be n×n and must not alias.
func CholeskyInto(a, l *Matrix) bool {
	if a.Rows != a.Cols || l.Rows != a.Rows || l.Cols != a.Cols {
		panic("tensor: CholeskyInto shape mismatch")
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		lrow := l.Row(j)
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= lrow[k] * lrow[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		diag := math.Sqrt(d)
		lrow[j] = diag
		for k := j + 1; k < n; k++ {
			lrow[k] = 0
		}
		for i := j + 1; i < n; i++ {
			irow := l.Row(i)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= irow[k] * lrow[k]
			}
			irow[j] = s / diag
		}
	}
	return true
}

// SolveInto solves (L·Lᵀ)·x = b given the lower-triangular Cholesky
// factor l, via one forward and one backward substitution. b and x must
// have length l.Rows; x may alias b.
func SolveInto(l *Matrix, b, x []float64) {
	n := l.Rows
	if l.Cols != n || len(b) != n || len(x) != n {
		panic("tensor: SolveInto shape mismatch")
	}
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// PairwiseSqDistInto fills out[i][j] with the squared Euclidean distance
// between row i of a and row j of b, accumulating over columns in
// ascending order (the same order a scalar per-feature loop uses, so the
// results are bit-identical to it). a is m×d, b is n×d, out is m×n.
func PairwiseSqDistInto(a, b, out *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: PairwiseSqDistInto shape mismatch")
	}
	d := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			s := 0.0
			for k := 0; k < d; k++ {
				diff := arow[k] - brow[k]
				s += diff * diff
			}
			orow[j] = s
		}
	}
}
