// Package nn implements the neural-network building blocks of the PnP
// tuner: parameterized layers with explicit forward/backward passes,
// softmax cross-entropy loss, and the Adam/AdamW(amsgrad) optimizers of
// the paper's Table II. There is no tape autograd — the model topology is
// fixed (RGCN stack feeding dense layers), so each layer owns its exact
// gradient computation, which keeps the hot path allocation-light.
package nn

import (
	"fmt"
	"math"

	"pnptuner/internal/tensor"
)

// ParamOf is a learnable weight matrix of T with its gradient
// accumulator.
type ParamOf[T tensor.Float] struct {
	Name string
	W    *tensor.MatrixOf[T]
	Grad *tensor.MatrixOf[T]
}

// Param is the float64 parameter that training updates.
type Param = ParamOf[float64]

// NewParam allocates a named parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// ConvertParam returns a copy of p's weights at precision T, with no
// gradient: the forward-only parameter of a quantized layer.
func ConvertParam[T tensor.Float](p *Param) *ParamOf[T] {
	return &ParamOf[T]{Name: p.Name, W: tensor.Convert[T](p.W)}
}

// ZeroGrad clears the gradient accumulator.
func (p *ParamOf[T]) ZeroGrad() { p.Grad.Zero() }

// LayerOf is a differentiable module over matrices of T.
type LayerOf[T tensor.Float] interface {
	// Forward computes the layer output for x, caching whatever the
	// backward pass needs.
	Forward(x *tensor.MatrixOf[T]) *tensor.MatrixOf[T]
	// Backward receives ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients along the way.
	Backward(dout *tensor.MatrixOf[T]) *tensor.MatrixOf[T]
	// Params returns the layer's learnable parameters.
	Params() []*ParamOf[T]
}

// Layer is the float64 layer that training runs.
type Layer = LayerOf[float64]

// LinearOf is a fully connected layer: y = x·W + b.
type LinearOf[T tensor.Float] struct {
	In, Out int
	Weight  *ParamOf[T] // In×Out
	Bias    *ParamOf[T] // 1×Out
	x       *tensor.MatrixOf[T]

	// Reusable output/gradient buffers: forward and backward results are
	// valid until the next call on this layer.
	outBuf  tensor.BufOf[T]
	dxBuf   tensor.BufOf[T]
	colSums []T
}

// Linear is the float64 fully connected layer.
type Linear = LinearOf[float64]

// NewLinear builds a Linear layer with Xavier-initialized weights.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: NewParam(name+".weight", in, out),
		Bias:   NewParam(name+".bias", 1, out),
	}
	l.Weight.W.XavierInit(rng, in, out)
	return l
}

// Forward computes x·W + b. The result is owned by the layer and valid
// until the next Forward.
func (l *LinearOf[T]) Forward(x *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: linear %d→%d got input width %d", l.In, l.Out, x.Cols))
	}
	l.x = x
	// Seed the output with the bias rows, then accumulate x·W in place.
	y := l.outBuf.Get(x.Rows, l.Out)
	for r := 0; r < x.Rows; r++ {
		copy(y.Row(r), l.Bias.W.Data)
	}
	tensor.MatMulAddInto(x, l.Weight.W, y)
	return y
}

// Backward accumulates dW = xᵀ·dout, db = Σrows dout and returns
// dx = dout·Wᵀ, owned by the layer and valid until the next Backward.
func (l *LinearOf[T]) Backward(dout *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	tensor.MatMulTAAddInto(l.x, dout, l.Weight.Grad)
	if l.colSums == nil {
		l.colSums = make([]T, l.Out)
	}
	dout.ColSumsInto(l.colSums)
	for c, v := range l.colSums {
		l.Bias.Grad.Data[c] += v
	}
	dx := l.dxBuf.Get(dout.Rows, l.In)
	tensor.MatMulTBInto(dout, l.Weight.W, dx)
	return dx
}

// Params returns the weight and bias.
func (l *LinearOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{l.Weight, l.Bias} }

// LeakyReLUOf applies max(x, alpha·x) elementwise. Alpha 0 gives plain
// ReLU.
type LeakyReLUOf[T tensor.Float] struct {
	Alpha T
	x     *tensor.MatrixOf[T]

	yBuf  tensor.BufOf[T]
	dxBuf tensor.BufOf[T]
}

// LeakyReLU is the float64 activation.
type LeakyReLU = LeakyReLUOf[float64]

// NewLeakyReLU builds the activation with negative-side slope alpha.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// NewReLU builds a plain ReLU.
func NewReLU() *LeakyReLU { return &LeakyReLU{} }

// Forward applies the activation. The result is owned by the layer and
// valid until the next Forward.
func (a *LeakyReLUOf[T]) Forward(x *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	a.x = x
	y := a.yBuf.Get(x.Rows, x.Cols)
	alpha, ys := a.Alpha, y.Data[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			ys[i] = v
		} else {
			ys[i] = alpha * v
		}
	}
	return y
}

// Backward gates the upstream gradient by the activation derivative. The
// result is owned by the layer and valid until the next Backward.
func (a *LeakyReLUOf[T]) Backward(dout *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	dx := a.dxBuf.Get(dout.Rows, dout.Cols)
	alpha, xs, dxs := a.Alpha, a.x.Data[:len(dout.Data)], dx.Data[:len(dout.Data)]
	for i, g := range dout.Data {
		if xs[i] > 0 {
			dxs[i] = g
		} else {
			dxs[i] = alpha * g
		}
	}
	return dx
}

// Params returns nil; activations are parameter-free.
func (a *LeakyReLUOf[T]) Params() []*ParamOf[T] { return nil }

// Dropout zeroes activations with probability P during training,
// rescaling survivors by 1/(1-P) (inverted dropout).
type Dropout struct {
	P        float64
	Training bool
	rng      *tensor.RNG
	mask     []float64
}

// NewDropout builds a dropout layer with drop probability p.
func NewDropout(p float64, rng *tensor.RNG) *Dropout {
	return &Dropout{P: p, rng: rng, Training: true}
}

// Forward applies the dropout mask in training mode and is the identity in
// evaluation mode.
func (d *Dropout) Forward(x *tensor.Matrix) *tensor.Matrix {
	if !d.Training || d.P <= 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.P
	scale := 1 / keep
	d.mask = make([]float64, len(x.Data))
	y := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward applies the saved mask to the upstream gradient.
func (d *Dropout) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if d.mask == nil {
		return dout
	}
	dx := tensor.New(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		dx.Data[i] = v * d.mask[i]
	}
	return dx
}

// Params returns nil.
func (d *Dropout) Params() []*Param { return nil }

// SequentialOf chains layers.
type SequentialOf[T tensor.Float] struct{ Layers []LayerOf[T] }

// Sequential is the float64 layer chain that training runs.
type Sequential = SequentialOf[float64]

// NewSequential builds a layer pipeline.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// ConvertSequential returns a forward-only copy of s at precision T: its
// Linear and LeakyReLU layers with converted weights, and no Dropout,
// which is the identity at inference.
func ConvertSequential[T tensor.Float](s *Sequential) (*SequentialOf[T], error) {
	out := &SequentialOf[T]{}
	for _, l := range s.Layers {
		switch l := l.(type) {
		case *Linear:
			out.Layers = append(out.Layers, &LinearOf[T]{In: l.In, Out: l.Out,
				Weight: ConvertParam[T](l.Weight), Bias: ConvertParam[T](l.Bias)})
		case *LeakyReLU:
			out.Layers = append(out.Layers, &LeakyReLUOf[T]{Alpha: T(l.Alpha)})
		case *Dropout: // the identity at inference
		default:
			return nil, fmt.Errorf("nn: cannot convert layer %T", l)
		}
	}
	return out, nil
}

// Forward runs every layer in order.
func (s *SequentialOf[T]) Forward(x *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs every layer's backward pass in reverse order.
func (s *SequentialOf[T]) Backward(dout *tensor.MatrixOf[T]) *tensor.MatrixOf[T] {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Params concatenates all layer parameters.
func (s *SequentialOf[T]) Params() []*ParamOf[T] {
	var out []*ParamOf[T]
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (batch×classes) against integer labels, returning the loss and
// ∂L/∂logits. Rows with label < 0 are ignored (masked).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), logits.Rows))
	}
	grad := tensor.New(logits.Rows, logits.Cols)
	loss := 0.0
	n := 0
	for r := 0; r < logits.Rows; r++ {
		if labels[r] < 0 {
			continue
		}
		loss += SoftmaxCrossEntropyAt(logits, r, labels[r], grad)
		n++
	}
	if n == 0 {
		return 0, grad
	}
	inv := 1 / float64(n)
	grad.ScaleInPlace(inv)
	return loss * inv, grad
}

// SoftmaxCrossEntropyAt computes the softmax cross-entropy of row r of
// logits against an integer label, writing the unscaled ∂L/∂row into row
// r of grad (every entry is overwritten) and returning the row loss. It
// is the per-row primitive the vectorized head passes build on.
func SoftmaxCrossEntropyAt(logits *tensor.Matrix, r, label int, grad *tensor.Matrix) float64 {
	if label < 0 || label >= logits.Cols {
		panic(fmt.Sprintf("nn: label %d out of range (%d classes)", label, logits.Cols))
	}
	row := logits.Row(r)
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	g := grad.Row(r)
	for c, v := range row {
		e := math.Exp(v - maxv)
		g[c] = e
		sum += e
	}
	inv := 1 / sum
	for c := range g {
		g[c] *= inv
	}
	g[label] -= 1
	return math.Log(sum) - (row[label] - maxv)
}

// SoftCrossEntropy computes cross-entropy of a single-row logits matrix
// against a soft target distribution: loss = -Σ p·log softmax(z), with
// gradient softmax(z) - p. Targets must be non-negative and sum to ~1.
func SoftCrossEntropy(logits *tensor.Matrix, target []float64) (float64, *tensor.Matrix) {
	if logits.Rows != 1 {
		panic(fmt.Sprintf("nn: soft CE wants 1-row logits, got %dx%d", logits.Rows, logits.Cols))
	}
	grad := tensor.New(1, logits.Cols)
	loss := SoftCrossEntropyAt(logits, 0, target, grad)
	return loss, grad
}

// SoftCrossEntropyAt computes the cross-entropy of row r of logits
// against a soft target distribution, writing ∂L/∂row into row r of grad
// (every entry is overwritten) and returning the row loss — the per-row
// primitive of SoftCrossEntropy.
func SoftCrossEntropyAt(logits *tensor.Matrix, r int, target []float64, grad *tensor.Matrix) float64 {
	if len(target) != logits.Cols {
		panic(fmt.Sprintf("nn: soft CE target len %d for %d classes", len(target), logits.Cols))
	}
	row := logits.Row(r)
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	g := grad.Row(r)
	for c, v := range row {
		e := math.Exp(v - maxv)
		g[c] = e
		sum += e
	}
	logZ := math.Log(sum) + maxv
	loss := 0.0
	inv := 1 / sum
	for c := range g {
		g[c] *= inv
	}
	for c, p := range target {
		if p > 0 {
			loss += p * (logZ - row[c])
		}
		g[c] -= p
	}
	return loss
}

// Softmax returns row-wise softmax probabilities of logits.
func Softmax(logits *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(logits.Rows, logits.Cols)
	for r := 0; r < logits.Rows; r++ {
		row := logits.Row(r)
		o := out.Row(r)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for c, v := range row {
			e := math.Exp(v - maxv)
			o[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range o {
			o[c] *= inv
		}
	}
	return out
}

// Argmax returns the index of the largest value in row r of m, the first
// maximum winning ties.
func Argmax[T tensor.Float](m *tensor.MatrixOf[T], r int) int {
	row := m.Row(r)
	best, bv := 0, row[0]
	for c, v := range row[1:] {
		if v > bv {
			best, bv = c+1, v
		}
	}
	return best
}

// TopK returns the indices of the k largest values in row r, best first.
func TopK[T tensor.Float](m *tensor.MatrixOf[T], r, k int) []int {
	row := m.Row(r)
	if k > len(row) {
		k = len(row)
	}
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: k is small.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if row[idx[j]] > row[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
