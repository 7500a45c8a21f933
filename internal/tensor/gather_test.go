package tensor

import (
	"fmt"
	"math"
	"testing"
)

// refGather is GatherRows one element at a time: the sum starts at +0
// and adds each in-neighbour's value in list order, then a non-empty row
// takes sum·norm. Both operations follow the operand order gc emits for
// GatherRows' loop (h + o, then o·w), spelled out in firstNaN, because gc
// reorders a written-out s = v + s however its registers fall.
func refGather[T Float](ptr, idx []int32, norm []float64, h, out *MatrixOf[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		for c := 0; c < out.Cols; c++ {
			var s T
			for _, src := range idx[ptr[i]:ptr[i+1]] {
				v := h.At(int(src), c)
				s = firstNaN(v, s, v+s)
			}
			if ptr[i] < ptr[i+1] {
				w := T(norm[i])
				s = firstNaN(s, w, s*w)
			}
			out.Set(i, c, s)
		}
	}
}

// firstNaN returns x when it is NaN and r = x op y otherwise: where two
// quiet NaNs meet in an SSE or AVX add or multiply, the first source's
// payload survives.
func firstNaN[T Float](x, y, r T) T {
	if x != x {
		return x
	}
	return r
}

// csrOf lays in-lists out as GatherRows' row pointers and neighbour
// indices, with each row's norm 1/len (0 for an empty list).
func csrOf(lists [][]int32) (ptr, idx []int32, norm []float64) {
	ptr = make([]int32, 1, len(lists)+1)
	norm = make([]float64, len(lists))
	for i, l := range lists {
		idx = append(idx, l...)
		ptr = append(ptr, int32(len(idx)))
		if len(l) > 0 {
			norm[i] = 1 / float64(len(l))
		}
	}
	return ptr, idx, norm
}

// checkGather runs GatherRows on one random CSR (0 to 5 in-neighbours a
// row, ±0 among the values) over a random row range, at both precisions,
// against refGather. Rows outside the range must keep out's values.
func checkGather(r *RNG) error {
	m, n, hRows := 1+r.Intn(40), 1+r.Intn(20), 1+r.Intn(40)
	lists := make([][]int32, m)
	for i := range lists {
		for d := r.Intn(6); d > 0; d-- {
			lists[i] = append(lists[i], int32(r.Intn(hRows)))
		}
	}
	ptr, idx, norm := csrOf(lists)
	h, out := New(hRows, n), New(m, n)
	sparseFill(h, r)
	sparseFill(out, r)
	lo := r.Intn(m + 1)
	hi := lo + r.Intn(m-lo+1)

	got, want := out.Clone(), out.Clone()
	GatherRows(ptr, idx, norm, h, got, lo, hi)
	refGather(ptr, idx, norm, h, want, lo, hi)
	if err := sameFloats(got.Data, want.Data); err != nil {
		return fmt.Errorf("float64 GatherRows [%d,%d) of %dx%d: %v", lo, hi, m, n, err)
	}
	h32, got32, want32 := Convert[float32](h), Convert[float32](out), Convert[float32](out)
	GatherRows(ptr, idx, norm, h32, got32, lo, hi)
	refGather(ptr, idx, norm, h32, want32, lo, hi)
	if err := sameFloats32(got32.Data, want32.Data); err != nil {
		return fmt.Errorf("float32 GatherRows [%d,%d) of %dx%d: %v", lo, hi, m, n, err)
	}
	return nil
}

// gatherEdgeLists are the edge table's in-lists over the rows of
// gatherEdgeH. Rows 0–4 of h hold one value in every column: NaN payload
// A, NaN payload B, −0, +Inf and −Inf; rows 5–7 are finite and differ by
// column. Row 7 of the output takes a NaN norm.
var gatherEdgeLists = [][]int32{
	{0, 1},          // payloads A then B meet: B, the later term, survives
	{2, 2},          // only −0 in-neighbours: 0 + −0 is +0
	{3, 4},          // +Inf meets −Inf: the default NaN
	{},              // no in-neighbours: +0, no multiply
	{5},             // one finite term, norm 1
	{5, 0, 6, 5, 7}, // finite terms around a NaN, one repeated
	{6, 3, 7},       // finite terms and +Inf, norm 1/3
	{1, 6},          // NaN B times a NaN norm: the sum's payload survives
	{},
	{7, 2, 6},
}

var (
	nanNorm  = math.Float64frombits(0x7ffc_0000_0000_0000) // converts to float32 0x7fe00000, not B
	edgeHFin = []float64{0.75, -1.125, 1e30, -0.3, 2, neg0, 5, 0, 1.5}
)

func gatherEdgeH[T Float](n int) *MatrixOf[T] {
	h := NewOf[T](8, n)
	edgeFill(h, edgeSet[T](edgeHFin), 0)
	for r, v := range edgeSet[T]([]float64{nanA64, nanB64, neg0, inf, math.Inf(-1)}) {
		for c := range h.Row(r) {
			h.Row(r)[c] = v
		}
	}
	return h
}

// TestGatherEdgeCasesBitExact pins GatherRows to refGather bit for bit on
// the values its order rule exists for, at both precisions and on both
// kernels: two NaN payloads meeting in one row (and a NaN sum meeting a
// NaN norm), rows whose only in-neighbours are −0, +Inf meeting −Inf and
// empty in-lists, whose rows must come out +0 over out's old values.
// Widths 1, 8, 15 and 16 run on the AVX2 kernel in float32, with lanes
// masked from 1 up to none; 17 is the first the Go loop takes. The range
// is gathered in two halves split mid-way, and the first half must leave
// the second's rows as they were.
func TestGatherEdgeCasesBitExact(t *testing.T) {
	for _, path := range kernelPaths {
		t.Run(path.name, func(t *testing.T) {
			defer useKernel(t, path.asm)()
			bothPrecisions(t, gatherEdgeCases[float64], gatherEdgeCases[float32])
		})
	}
}

func gatherEdgeCases[T Float](t *testing.T) {
	ptr, idx, norm := csrOf(gatherEdgeLists)
	norm[7] = nanNorm
	m := len(gatherEdgeLists)
	mid := m / 2
	_, f32 := any(T(0)).(float32)
	for _, n := range []int{1, 8, 15, 16, 17} {
		h := gatherEdgeH[T](n)
		out := NewOf[T](m, n)
		edgeFill(out, edgeSet[T](edgeO), 0)

		wantAsm := 0
		if useAVX2 && f32 && n <= 16 {
			wantAsm = m
		}
		if ran := gatherRowsAsm(ptr, idx, norm, h, out.Clone(), 0, m); ran != wantAsm {
			t.Errorf("width %d: the AVX2 kernel gathered %d rows, want %d", n, ran, wantAsm)
		}

		got, want := out.Clone(), out.Clone()
		GatherRows(ptr, idx, norm, h, got, 0, mid)
		if err := sameBits(got.Data[mid*n:], out.Data[mid*n:]); err != nil {
			t.Errorf("width %d: gathering rows [0,%d) wrote row %d or later: %v", n, mid, mid, err)
		}
		GatherRows(ptr, idx, norm, h, got, mid, m)
		refGather(ptr, idx, norm, h, want, 0, m)
		if err := sameBits(got.Data, want.Data); err != nil {
			t.Errorf("width %d: %v", n, err)
		}
	}
}

// TestGatherRowsRejectsOutOfRange: a neighbour index outside h, or a row
// whose list bounds run backwards or past the index slice, panics on both
// kernels instead of reading outside h or idx.
func TestGatherRowsRejectsOutOfRange(t *testing.T) {
	for _, path := range kernelPaths {
		t.Run(path.name, func(t *testing.T) {
			defer useKernel(t, path.asm)()
			for _, c := range []struct {
				name     string
				ptr, idx []int32
			}{
				{"index past h", []int32{0, 1, 2}, []int32{0, 4}},
				{"negative index", []int32{0, 1, 2}, []int32{0, -1}},
				{"bounds backwards", []int32{0, 2, 1}, []int32{0, 1}},
				{"bounds past idx", []int32{0, 1, 3}, []int32{0, 1}},
			} {
				h, out := NewOf[float32](4, 16), NewOf[float32](2, 16)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: no panic", c.name)
						}
					}()
					GatherRows(c.ptr, c.idx, []float64{1, 1}, h, out, 0, 2)
				}()
			}
		})
	}
}

// BenchmarkGatherRows times one RGCN layer's forward gathers at
// serve-large's shape, float32, on the AVX2 kernel ("asm") and on the Go
// loop ("go"): 1,237 rows with 1,225 control and 1,984 data edges between
// random nodes, each relation gathered forward and reversed, on rows 15
// wide (the first layer's input) and 16 wide (the hidden layers').
func BenchmarkGatherRows(b *testing.B) {
	const rows = 1237
	r := NewRNG(5)
	type plan struct {
		ptr, idx []int32
		norm     []float64
	}
	var plans []plan
	for _, edges := range []int{1225, 1984} {
		fwd, rev := make([][]int32, rows), make([][]int32, rows)
		for e := 0; e < edges; e++ {
			src, dst := int32(r.Intn(rows)), int32(r.Intn(rows))
			fwd[dst] = append(fwd[dst], src)
			rev[src] = append(rev[src], dst)
		}
		for _, lists := range [][][]int32{fwd, rev} {
			ptr, idx, norm := csrOf(lists)
			plans = append(plans, plan{ptr, idx, norm})
		}
	}
	for _, path := range kernelPaths {
		b.Run(path.name, func(b *testing.B) {
			defer useKernel(b, path.asm)()
			for _, n := range []int{15, 16} {
				b.Run(fmt.Sprintf("width=%d", n), func(b *testing.B) {
					h, out := Convert[float32](randMat(rows, n, r)), NewOf[float32](rows, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, p := range plans {
							GatherRows(p.ptr, p.idx, p.norm, h, out, 0, rows)
						}
					}
				})
			}
		})
	}
}
