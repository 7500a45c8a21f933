package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data[i], w) {
			t.Fatalf("c[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulTAMatchesExplicitTranspose(t *testing.T) {
	r := NewRNG(1)
	a := New(7, 4)
	b := New(7, 5)
	a.FillUniform(r, 1)
	b.FillUniform(r, 1)
	at := New(4, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	got := MatMulTA(a, b)
	want := MatMul(at, b)
	sameShape("test", got, want)
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatalf("TA mismatch at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTBMatchesExplicitTranspose(t *testing.T) {
	r := NewRNG(2)
	a := New(6, 4)
	b := New(5, 4)
	a.FillUniform(r, 1)
	b.FillUniform(r, 1)
	bt := New(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	got := MatMulTB(a, b)
	want := MatMul(a, bt)
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatalf("TB mismatch at %d", i)
		}
	}
}

// TestMatMulParallelMatchesSerial: MatMulAddRows over disjoint row
// ranges, run concurrently on one out, matches the whole product exactly,
// not just closely: each range computes whole rows the same way.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := NewRNG(3)
	a := New(80, 90)
	b := New(90, 70)
	a.FillUniform(r, 1)
	b.FillUniform(r, 1)
	want := MatMul(a, b)
	for _, workers := range []int{1, 3, 8} {
		got := New(80, 70)
		parallelFor(a.Rows, workers, func(lo, hi int) { MatMulAddRows(a, b, got, lo, hi) })
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%d workers: mismatch at %d: %v vs %v", workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	h := Hadamard(a, b)
	for i, w := range []float64{5, 12, 21, 32} {
		if !almostEq(h.Data[i], w) {
			t.Fatalf("hadamard[%d] = %g", i, h.Data[i])
		}
	}
	a.AddInPlace(b)
	if !almostEq(a.At(1, 1), 12) {
		t.Fatal("AddInPlace wrong")
	}
	a.AxpyInPlace(0.5, b)
	if !almostEq(a.At(0, 0), 6+2.5) {
		t.Fatal("AxpyInPlace wrong")
	}
	a.ScaleInPlace(2)
	if !almostEq(a.At(0, 0), 17) {
		t.Fatal("ScaleInPlace wrong")
	}
	a.Zero()
	if a.FrobeniusNorm() != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestRowVecAndSums(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVec([]float64{10, 20, 30})
	if !almostEq(m.At(1, 2), 36) {
		t.Fatal("AddRowVec wrong")
	}
	s := m.ColSums()
	if !almostEq(s[0], 11+14) || !almostEq(s[2], 33+36) {
		t.Fatalf("ColSums = %v", s)
	}
	mean := m.MeanRow()
	if mean.Rows != 1 || mean.Cols != 3 || !almostEq(mean.At(0, 0), 12.5) {
		t.Fatalf("MeanRow = %v", mean.Data)
	}
}

func TestMeanRowEmpty(t *testing.T) {
	m := New(0, 4)
	mean := m.MeanRow()
	for _, v := range mean.Data {
		if v != 0 {
			t.Fatal("mean of empty matrix must be zero")
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds produce near-identical streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %g", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestXavierInitBounds(t *testing.T) {
	r := NewRNG(9)
	m := New(30, 40)
	m.XavierInit(r, 30, 40)
	bound := math.Sqrt(6.0 / 70.0)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("xavier value %g exceeds bound %g", v, bound)
		}
	}
	if m.FrobeniusNorm() == 0 {
		t.Fatal("xavier produced all zeros")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, checked through MatMulTA/TB identities.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := New(m, k)
		b := New(k, n)
		a.FillUniform(r, 2)
		b.FillUniform(r, 2)
		ab := MatMul(a, b)
		// (A·B)[i][j] must equal MatMulTB(A, Bᵀ-as-rows)[i][j] where we pass
		// b transposed explicitly.
		bt := New(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		ab2 := MatMulTB(a, bt)
		for i := range ab.Data {
			if math.Abs(ab.Data[i]-ab2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) == A·B + A·C.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := New(m, k)
		b := New(k, n)
		c := New(k, n)
		a.FillUniform(r, 1)
		b.FillUniform(r, 1)
		c.FillUniform(r, 1)
		bc := b.Clone()
		bc.AddInPlace(c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		right.AddInPlace(MatMul(a, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
