package tensor

import "fmt"

// GatherRows sets out[i] = norm[i] · Σ h[idx[k]] for every row i in
// [lo, hi), k running over [ptr[i], ptr[i+1]): a row range of the RGCN
// layers' CSR in-neighbour gather. Each sum starts at +0, adds the h rows
// in list order and is multiplied once by T(norm[i]); an empty list gives
// +0. No other row of out is written, so disjoint ranges can run
// concurrently. On amd64 with AVX2, float32 rows up to sixteen wide run
// on gather_amd64.s bit for bit with the Go loop below, whose operand
// order (h + o, then o·w, as gc emits them) the kernel keeps.
func GatherRows[T Float](ptr, idx []int32, norm []float64, h, out *MatrixOf[T], lo, hi int) {
	if h.Cols != out.Cols || lo < 0 || lo > hi || hi > out.Rows || hi >= len(ptr) || hi > len(norm) {
		panic(fmt.Sprintf("tensor: gather rows [%d,%d) of %dx%d from %dx%d over %d row pointers and %d norms",
			lo, hi, out.Rows, out.Cols, h.Rows, h.Cols, len(ptr), len(norm)))
	}
	i := gatherRowsAsm(ptr, idx, norm, h, out, lo, hi)
	clear(out.Data[i*out.Cols : hi*out.Cols])
	for ; i < hi; i++ {
		start, end := ptr[i], ptr[i+1]
		if start == end {
			continue
		}
		orow := out.Row(i)
		for _, s := range idx[start:end] {
			for c, v := range h.Row(int(s)) {
				orow[c] += v
			}
		}
		w := T(norm[i])
		for c := range orow {
			orow[c] *= w
		}
	}
}
