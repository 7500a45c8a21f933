package nn

import (
	"math"
	"strings"
	"testing"

	"pnptuner/internal/tensor"
)

func leakyReLUForward[T tensor.Float](t *testing.T) {
	for _, c := range []struct {
		alpha   T
		x, want []T
	}{
		{0.1, []T{-2, -0.5, 0, 3}, []T{-0.2, -0.05, 0, 3}},
		{0, []T{-2, 0, 3}, []T{0, 0, 3}},
	} {
		a := &LeakyReLUOf[T]{Alpha: c.alpha}
		x := &tensor.MatrixOf[T]{Rows: 1, Cols: len(c.x), Data: append([]T(nil), c.x...)}
		if got := a.Forward(x).Data; !equalFloats(got, c.want) {
			t.Fatalf("alpha %v: Forward(%v) = %v, want %v", c.alpha, c.x, got, c.want)
		}
		// Backward of a ones gradient is the derivative: 1 where x > 0,
		// alpha elsewhere.
		ones := &tensor.MatrixOf[T]{Rows: 1, Cols: len(c.x), Data: make([]T, len(c.x))}
		wantGrad := make([]T, len(c.x))
		for i, v := range c.x {
			ones.Data[i], wantGrad[i] = 1, c.alpha
			if v > 0 {
				wantGrad[i] = 1
			}
		}
		if got := a.Backward(ones).Data; !equalFloats(got, wantGrad) {
			t.Fatalf("alpha %v: Backward at %v = %v, want %v", c.alpha, c.x, got, wantGrad)
		}
	}
}

// TestLeakyReLUForward checks the activation at both precisions.
func TestLeakyReLUForward(t *testing.T) {
	t.Run("float64", leakyReLUForward[float64])
	t.Run("float32", leakyReLUForward[float32])
}

func equalFloats[T tensor.Float](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConvertSequential: a converted head drops Dropout and runs the same
// forward code, so its float64 conversion reproduces the source's logits
// bit for bit and its float32 conversion tracks them closely.
func TestConvertSequential(t *testing.T) {
	rng := tensor.NewRNG(7)
	drop := NewDropout(0.5, rng)
	drop.Training = false
	s := NewSequential(NewLinear("a", 5, 6, rng), NewLeakyReLU(0.01), drop, NewLinear("b", 6, 4, rng))
	x := tensor.New(3, 5)
	x.FillUniform(rng, 1)
	want := s.Forward(x).Clone()

	f64, err := ConvertSequential[float64](s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f64.Layers) != 3 {
		t.Fatalf("converted %d layers, want 3 (Dropout dropped)", len(f64.Layers))
	}
	for i, v := range f64.Forward(x).Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("float64 conversion logit %d = %v, source %v", i, v, want.Data[i])
		}
	}
	f32, err := ConvertSequential[float32](s)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f32.Forward(tensor.Convert[float32](x)).Data {
		if d := math.Abs(float64(v) - want.Data[i]); d > 1e-5 {
			t.Fatalf("float32 conversion logit %d = %v, source %v", i, v, want.Data[i])
		}
	}
	// Weights are copied: training the source leaves the conversion alone.
	s.Layers[0].Params()[0].W.Data[0] += 1
	if f64.Layers[0].Params()[0].W.Data[0] == s.Layers[0].Params()[0].W.Data[0] {
		t.Fatal("conversion shares weights with its source")
	}

	if _, err := ConvertSequential[float32](NewSequential(&opaque{})); err == nil || !strings.Contains(err.Error(), "cannot convert") {
		t.Fatalf("unknown layer converted: err = %v", err)
	}
}

// opaque is a layer ConvertSequential does not know.
type opaque struct{}

func (opaque) Forward(x *tensor.Matrix) *tensor.Matrix  { return x }
func (opaque) Backward(d *tensor.Matrix) *tensor.Matrix { return d }
func (opaque) Params() []*Param                         { return nil }
