package tensor

import (
	"math"
	"testing"
)

func randMat(rows, cols int, rng *RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// bothPrecisions runs test once per instantiation the serving stack uses.
func bothPrecisions(t *testing.T, f64, f32 func(*testing.T)) {
	t.Run("float64", f64)
	t.Run("float32", f32)
}

// TestMatMul32MatchesFloat64 is the quantization property test: the
// float32 product of converted operands must track the float64 product
// within 1e-4 relative error.
func TestMatMul32MatchesFloat64(t *testing.T) {
	rng := NewRNG(41)
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(24)
		k := 1 + rng.Intn(24)
		n := 1 + rng.Intn(24)
		a, b := randMat(m, k, rng), randMat(k, n, rng)
		want := New(m, n)
		MatMulAddInto(a, b, want)

		got := NewOf[float32](m, n)
		MatMulAddInto(Convert[float32](a), Convert[float32](b), got)
		for i := range want.Data {
			w, g := want.Data[i], float64(got.Data[i])
			if d := math.Abs(g - w); d > 1e-4*math.Max(1, math.Abs(w)) {
				t.Fatalf("trial %d (%dx%dx%d): out[%d] = %g vs float64 %g",
					trial, m, k, n, i, g, w)
			}
		}
	}
}

func matMulAddAccumulates[T Float](t *testing.T) {
	for _, c := range []struct {
		a, b, out []T
		k         int
		want      []T
	}{
		{a: []T{1, 2}, b: []T{3, 4}, out: []T{10}, k: 2, want: []T{21}},
		{a: []T{0, 2}, b: []T{3, 4}, out: []T{-1}, k: 2, want: []T{7}},
		{a: []T{1, 2, 3}, b: []T{1, 1, 1}, out: []T{0.5}, k: 3, want: []T{6.5}},
	} {
		a := &MatrixOf[T]{Rows: 1, Cols: c.k, Data: c.a}
		b := &MatrixOf[T]{Rows: c.k, Cols: 1, Data: c.b}
		out := &MatrixOf[T]{Rows: 1, Cols: 1, Data: append([]T(nil), c.out...)}
		MatMulAddInto(a, b, out)
		if out.Data[0] != c.want[0] {
			t.Errorf("%v·%v onto %v = %v, want %v", c.a, c.b, c.out, out.Data, c.want)
		}
	}
}

// TestMatMulAddAccumulates: MatMulAddInto adds onto what out holds at
// both precisions.
func TestMatMulAddAccumulates(t *testing.T) {
	bothPrecisions(t, matMulAddAccumulates[float64], matMulAddAccumulates[float32])
}

func bufReuse[T Float](t *testing.T) {
	var b BufOf[T]
	m1 := b.Get(4, 8)
	m1.Data[0] = 7
	p1 := &m1.Data[0]
	m2 := b.GetZeroed(2, 8)
	if m2.Data[0] != 0 {
		t.Fatal("GetZeroed returned dirty data")
	}
	if &m2.Data[0] != p1 {
		t.Fatal("buffer reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() { b.Get(4, 8) })
	if allocs > 0 {
		t.Fatalf("steady-state Get allocates %.0f times", allocs)
	}
}

// TestBufReuse: a scratch buffer reuses its backing array and allocates
// nothing in steady state at both precisions.
func TestBufReuse(t *testing.T) {
	bothPrecisions(t, bufReuse[float64], bufReuse[float32])
}

// TestConvertCopies: Convert rounds each element to the target precision
// and shares no storage with its source.
func TestConvertCopies(t *testing.T) {
	src := FromSlice(1, 3, []float64{1, 0.1, -2.5})
	f32 := Convert[float32](src)
	if f32.Rows != 1 || f32.Cols != 3 || f32.Data[1] != float32(0.1) || f32.Data[2] != -2.5 {
		t.Fatalf("Convert[float32] = %+v", f32)
	}
	f64 := Convert[float64](src)
	src.Data[0] = 9
	if f64.Data[0] != 1 || f64.Data[1] != 0.1 {
		t.Fatalf("Convert[float64] shares or changes data: %v", f64.Data)
	}
}
