package nn

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"pnptuner/internal/tensor"
)

// numericalGrad estimates dLoss/dTheta by central differences.
func numericalGrad(theta []float64, i int, loss func() float64) float64 {
	const h = 1e-6
	orig := theta[i]
	theta[i] = orig + h
	lp := loss()
	theta[i] = orig - h
	lm := loss()
	theta[i] = orig
	return (lp - lm) / (2 * h)
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	lin := NewLinear("l", 4, 3, rng)
	x := tensor.New(5, 4)
	x.FillUniform(rng, 1)
	labels := []int{0, 2, 1, 0, 2}

	loss := func() float64 {
		y := lin.Forward(x)
		l, _ := SoftmaxCrossEntropy(y, labels)
		return l
	}
	// Analytic gradients.
	ZeroGrads(lin.Params())
	y := lin.Forward(x)
	_, dy := SoftmaxCrossEntropy(y, labels)
	dx := lin.Backward(dy)

	for _, p := range lin.Params() {
		for i := 0; i < len(p.W.Data); i += 3 {
			want := numericalGrad(p.W.Data, i, loss)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > 1e-5 {
				t.Fatalf("%s grad[%d] = %g, want %g", p.Name, i, got, want)
			}
		}
	}
	// Input gradient check.
	for i := 0; i < len(x.Data); i += 4 {
		want := numericalGrad(x.Data, i, loss)
		if math.Abs(dx.Data[i]-want) > 1e-5 {
			t.Fatalf("dx[%d] = %g, want %g", i, dx.Data[i], want)
		}
	}
}

func TestLeakyReLUGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	act := NewLeakyReLU(0.1)
	lin := NewLinear("l", 3, 2, rng)
	x := tensor.New(4, 3)
	x.FillUniform(rng, 1)
	labels := []int{0, 1, 1, 0}

	loss := func() float64 {
		y := lin.Forward(act.Forward(x))
		l, _ := SoftmaxCrossEntropy(y, labels)
		return l
	}
	ZeroGrads(lin.Params())
	y := lin.Forward(act.Forward(x))
	_, dy := SoftmaxCrossEntropy(y, labels)
	dx := act.Backward(lin.Backward(dy))

	for i := range x.Data {
		want := numericalGrad(x.Data, i, loss)
		if math.Abs(dx.Data[i]-want) > 1e-5 {
			t.Fatalf("dx[%d] = %g, want %g", i, dx.Data[i], want)
		}
	}
}

func TestSequentialComposesBackward(t *testing.T) {
	rng := tensor.NewRNG(3)
	model := NewSequential(
		NewLinear("a", 4, 8, rng),
		NewLeakyReLU(0.01),
		NewLinear("b", 8, 3, rng),
	)
	x := tensor.New(6, 4)
	x.FillUniform(rng, 1)
	labels := []int{0, 1, 2, 0, 1, 2}

	loss := func() float64 {
		l, _ := SoftmaxCrossEntropy(model.Forward(x), labels)
		return l
	}
	ZeroGrads(model.Params())
	_, dy := SoftmaxCrossEntropy(model.Forward(x), labels)
	model.Backward(dy)

	if len(model.Params()) != 4 {
		t.Fatalf("params = %d, want 4", len(model.Params()))
	}
	for _, p := range model.Params() {
		for i := 0; i < len(p.W.Data); i += 5 {
			want := numericalGrad(p.W.Data, i, loss)
			if math.Abs(p.Grad.Data[i]-want) > 1e-5 {
				t.Fatalf("%s grad mismatch", p.Name)
			}
		}
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	logits := tensor.FromSlice(1, 2, []float64{0, 0})
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %g, want ln2", loss)
	}
	if math.Abs(grad.At(0, 0)-(-0.5)) > 1e-12 || math.Abs(grad.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestSoftmaxCrossEntropyMasksNegativeLabels(t *testing.T) {
	logits := tensor.FromSlice(2, 3, []float64{5, 0, 0, 0, 5, 0})
	loss1, grad := SoftmaxCrossEntropy(logits, []int{0, -1})
	for _, g := range grad.Row(1) {
		if g != 0 {
			t.Fatal("masked row contributed gradient")
		}
	}
	loss2, _ := SoftmaxCrossEntropy(tensor.FromSlice(1, 3, []float64{5, 0, 0}), []int{0})
	if math.Abs(loss1-loss2) > 1e-12 {
		t.Fatalf("masked loss %g != unmasked %g", loss1, loss2)
	}
}

// Property: softmax CE gradient rows sum to ~0 for labeled rows.
func TestQuickCEGradientRowsSumToZero(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		rows, cols := 1+rng.Intn(6), 2+rng.Intn(7)
		logits := tensor.New(rows, cols)
		logits.FillUniform(rng, 3)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = rng.Intn(cols)
		}
		_, grad := SoftmaxCrossEntropy(logits, labels)
		for r := 0; r < rows; r++ {
			s := 0.0
			for _, g := range grad.Row(r) {
				s += g
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax rows are valid distributions.
func TestQuickSoftmaxIsDistribution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(8)
		logits := tensor.New(rows, cols)
		logits.FillUniform(rng, 10)
		p := Softmax(logits)
		for r := 0; r < rows; r++ {
			s := 0.0
			for _, v := range p.Row(r) {
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAdamConvergesOnToyProblem(t *testing.T) {
	// Learn to classify x by sign of its first coordinate.
	rng := tensor.NewRNG(4)
	model := NewSequential(
		NewLinear("a", 2, 8, rng),
		NewLeakyReLU(0.01),
		NewLinear("b", 8, 2, rng),
	)
	opt := NewAdam(DefaultAdamWConfig())
	x := tensor.New(32, 2)
	labels := make([]int, 32)
	for i := 0; i < 32; i++ {
		v := 2*rng.Float64() - 1
		x.Set(i, 0, v)
		x.Set(i, 1, rng.Float64())
		if v > 0 {
			labels[i] = 1
		}
	}
	var first, last float64
	for epoch := 0; epoch < 200; epoch++ {
		ZeroGrads(model.Params())
		loss, dy := SoftmaxCrossEntropy(model.Forward(x), labels)
		model.Backward(dy)
		opt.Step(model.Params())
		if epoch == 0 {
			first = loss
		}
		last = loss
	}
	if last > first/2 {
		t.Fatalf("Adam failed to converge: first %g last %g", first, last)
	}
}

func TestAMSGradKeepsMaxSecondMoment(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.W.Data[0] = 1
	opt := NewAdam(AdamConfig{LR: 0.1, Beta1: 0.9, Beta2: 0.9, Eps: 1e-8, AMSGrad: true})
	// Large gradient then tiny gradients: amsgrad should keep the
	// effective step small because vhat remembers the large moment.
	p.Grad.Data[0] = 10
	opt.Step([]*Param{p})
	st := opt.state[p]
	vAfterBig := st.vhat[0]
	for i := 0; i < 5; i++ {
		p.Grad.Data[0] = 1e-4
		opt.Step([]*Param{p})
	}
	if st.vhat[0] < vAfterBig {
		t.Fatalf("vhat decreased: %g < %g", st.vhat[0], vAfterBig)
	}
}

func TestSGDMomentumMovesDownhill(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.W.Data[0] = 5
	opt := NewSGD(0.1, 0.9)
	for i := 0; i < 100; i++ {
		p.ZeroGrad()
		p.Grad.Data[0] = 2 * p.W.Data[0] // d/dw of w²
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W.Data[0]) > 0.1 {
		t.Fatalf("SGD did not minimize w²: w = %g", p.W.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 1, 4)
	copy(p.Grad.Data, []float64{3, 4, 0, 0})
	norm := ClipGradNorm([]*Param{p}, 1.0)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %g, want 5", norm)
	}
	after := math.Hypot(p.Grad.Data[0], p.Grad.Data[1])
	if math.Abs(after-1) > 1e-9 {
		t.Fatalf("post-clip norm = %g, want 1", after)
	}
	// Under the limit: untouched.
	copy(p.Grad.Data, []float64{0.1, 0, 0, 0})
	ClipGradNorm([]*Param{p}, 1.0)
	if p.Grad.Data[0] != 0.1 {
		t.Fatal("clip modified an in-bounds gradient")
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := tensor.NewRNG(8)
	d := NewDropout(0.5, rng)
	x := tensor.New(10, 20)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y := d.Forward(x)
	zeros := 0
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("kept value = %g, want 2 (inverted dropout)", v)
		}
	}
	if zeros < 50 || zeros > 150 {
		t.Fatalf("dropped %d of 200, want ~100", zeros)
	}
	d.Training = false
	y2 := d.Forward(x)
	for _, v := range y2.Data {
		if v != 1 {
			t.Fatal("eval mode must be identity")
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	src := NewLinear("shared", 4, 6, rng)
	ck := Snapshot(src.Params())
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewLinear("shared", 4, 6, tensor.NewRNG(99))
	n, unmatched, err := ck2.Restore(dst.Params())
	if err != nil || n != 2 || len(unmatched) != 0 {
		t.Fatalf("restored %d params, unmatched %v, err %v", n, unmatched, err)
	}
	for i := range src.Weight.W.Data {
		if src.Weight.W.Data[i] != dst.Weight.W.Data[i] {
			t.Fatal("restored weights differ")
		}
	}
	// Shape mismatch must error.
	bad := NewLinear("shared", 4, 7, rng)
	if _, _, err := ck2.Restore(bad.Params()); err == nil {
		t.Fatal("Restore accepted shape mismatch")
	}
	// Checkpoint entries matching no parameter are reported, not dropped.
	other := NewLinear("other", 4, 6, rng)
	n, unmatched, err = ck2.Restore(other.Params())
	if err != nil || n != 0 {
		t.Fatalf("unknown name: restored %d, err %v", n, err)
	}
	if len(unmatched) != 2 || unmatched[0] != "shared.bias" || unmatched[1] != "shared.weight" {
		t.Fatalf("unmatched = %v, want sorted [shared.bias shared.weight]", unmatched)
	}
	// RestoreStrict turns unmatched entries into a loud failure.
	if _, err := ck2.RestoreStrict(other.Params()); err == nil {
		t.Fatal("RestoreStrict accepted a checkpoint for a different model")
	}
	if _, err := ck2.RestoreStrict(dst.Params()); err != nil {
		t.Fatalf("RestoreStrict rejected an exact match: %v", err)
	}
}

func TestCheckpointFileIO(t *testing.T) {
	rng := tensor.NewRNG(6)
	lin := NewLinear("f", 3, 3, rng)
	path := t.TempDir() + "/ck.gob"
	if err := Snapshot(lin.Params()).Save(path); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Restore(lin.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path + ".missing"); err == nil {
		t.Fatal("loaded a missing file")
	}
}

func argmaxAndTopK[T tensor.Float](t *testing.T) {
	m := &tensor.MatrixOf[T]{Rows: 3, Cols: 4, Data: []T{1, 9, 3, 7, 0, 0, 5, 1, 2, 8, 8, 2}}
	if Argmax(m, 0) != 1 || Argmax(m, 1) != 2 {
		t.Fatal("argmax wrong")
	}
	if Argmax(m, 2) != 1 {
		t.Fatal("argmax tie: the first maximum must win")
	}
	for _, c := range []struct {
		r, k int
		want []int
	}{
		{0, 3, []int{1, 3, 2}},
		{0, 99, []int{1, 3, 2, 0}},
		{2, 2, []int{1, 2}},
	} {
		if got := TopK(m, c.r, c.k); !slices.Equal(got, c.want) {
			t.Fatalf("TopK(row %d, %d) = %v, want %v", c.r, c.k, got, c.want)
		}
	}
}

// TestArgmaxAndTopK runs at both precisions: quantized serving must break
// ties as float64 serving does.
func TestArgmaxAndTopK(t *testing.T) {
	t.Run("float64", argmaxAndTopK[float64])
	t.Run("float32", argmaxAndTopK[float32])
}
