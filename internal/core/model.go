// Package core implements the PnP tuner, the paper's primary
// contribution: an RGCN-based model over flow-aware program graphs that
// predicts (i) the best OpenMP configuration at each power constraint and
// (ii) the joint (power cap, OpenMP configuration) minimizing the
// energy-delay product — without executing the code being tuned.
//
// The architecture follows Table II: a token embedding feeding 4 RGCN
// layers with LeakyReLU activations, mean-pool readout, and a 3-layer
// fully connected classifier head with ReLU activations, trained with
// cross-entropy under AdamW(amsgrad) at lr 0.001 and batch size 16.
// The "dynamic features" variant (§IV-B) concatenates five PAPI counters
// (and, for the unseen-cap experiments, the normalized power cap) to the
// pooled graph vector before the dense layers.
package core

import (
	"fmt"

	"pnptuner/internal/kernels"
	"pnptuner/internal/nn"
	"pnptuner/internal/papi"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/tensor"
)

// ModelConfig collects the hyperparameters of Table II plus the sizing
// knobs of this implementation.
type ModelConfig struct {
	EmbedDim   int
	Hidden     int
	NumRGCN    int // Table II: 4
	NumDense   int // Table II: 3
	LeakySlope float64

	LR          float64
	WeightDecay float64
	AMSGrad     bool
	Epochs      int
	BatchSize   int // Table II: 16
	ClipNorm    float64

	// UseCounters enables the dynamic-feature path (5 PAPI counters).
	UseCounters bool
	// UseCapFeature appends the normalized power cap to the dense input
	// (the unseen-power-constraint experiments of Figs. 4–5).
	UseCapFeature bool

	// SoftLabels trains against a distribution over the near-optimal
	// configuration set instead of the single argmax: with 127–508
	// classes and ~60 training regions, many configurations tie within
	// measurement noise, and hard labels punish the model for choosing
	// an equally good neighbour. SoftGamma sharpens the distribution
	// (p ∝ (best/t)^γ over configs within 20% of best).
	SoftLabels bool
	SoftGamma  float64

	Seed uint64
}

// DefaultModelConfig returns the Table II configuration sized for the
// 68-region corpus.
func DefaultModelConfig() ModelConfig {
	return ModelConfig{
		EmbedDim:    12,
		Hidden:      16,
		NumRGCN:     4,
		NumDense:    3,
		LeakySlope:  0.01,
		LR:          0.001,
		WeightDecay: 0.01,
		AMSGrad:     true,
		Epochs:      45,
		BatchSize:   16,
		ClipNorm:    5,
		SoftLabels:  true,
		SoftGamma:   24,
	}
}

// EncoderOf is the GNN half of the model at precision T: embedding, RGCN
// stack, readout. Its parameters are the ones shared in the
// Haswell→Skylake transfer. ForwardBatch encodes a whole block-diagonal
// batch in a single pass; one graph is a one-graph batch.
type EncoderOf[T tensor.Float] struct {
	Emb    *rgcn.EmbeddingOf[T]
	Layers []*rgcn.LayerOf[T]
	Acts   []*nn.LeakyReLUOf[T]
	// BatchPool is the segment-aware mean-pool readout.
	BatchPool nn.SegmentPoolOf[T]
	Hidden    int
}

// Encoder is the float64 encoder that training runs.
type Encoder = EncoderOf[float64]

// NewEncoder builds the graph encoder.
func NewEncoder(cfg ModelConfig, vocabSize int, rng *tensor.RNG) *Encoder {
	e := &Encoder{
		Emb:    rgcn.NewEmbedding("gnn.embed", vocabSize, cfg.EmbedDim, rng),
		Hidden: cfg.Hidden,
	}
	in := e.Emb.OutDim()
	for i := 0; i < cfg.NumRGCN; i++ {
		e.Layers = append(e.Layers, rgcn.NewLayer(fmt.Sprintf("gnn.rgcn%d", i), in, cfg.Hidden, rng))
		e.Acts = append(e.Acts, nn.NewLeakyReLU(cfg.LeakySlope))
		in = cfg.Hidden
	}
	return e
}

// convertEncoder returns a forward-only copy of e with its weights at
// precision T.
func convertEncoder[T tensor.Float](e *Encoder) *EncoderOf[T] {
	q := &EncoderOf[T]{Emb: rgcn.ConvertEmbedding[T](e.Emb), Hidden: e.Hidden}
	for i, l := range e.Layers {
		q.Layers = append(q.Layers, rgcn.ConvertLayer[T](l))
		q.Acts = append(q.Acts, &nn.LeakyReLUOf[T]{Alpha: T(e.Acts[i].Alpha)})
	}
	return q
}

// ForwardBatch encodes every graph of a block-diagonal batch in one pass:
// row g of the result is the pooled vector of the batch's graph g. One
// set of big matrix operations replaces NumGraphs small ones, and a large
// batch splits each RGCN layer's rows across the tensor pool.
func (e *EncoderOf[T]) ForwardBatch(b *rgcn.Batch) *tensor.MatrixOf[T] {
	h := e.Emb.ForwardBatch(b)
	for i, l := range e.Layers {
		l.SetGraph(b.Adj)
		h = e.Acts[i].Forward(l.Forward(h))
	}
	return e.BatchPool.Forward(h, b.Offsets)
}

// BackwardBatch propagates per-graph pooled gradients (row g for graph g,
// matching the last ForwardBatch) through the stack in one batched pass.
func (e *EncoderOf[T]) BackwardBatch(dpool *tensor.MatrixOf[T]) {
	d := e.BatchPool.Backward(dpool)
	for i := len(e.Layers) - 1; i >= 0; i-- {
		d = e.Layers[i].Backward(e.Acts[i].Backward(d))
	}
	e.Emb.Backward(d)
}

// Params returns every encoder parameter.
func (e *EncoderOf[T]) Params() []*nn.ParamOf[T] {
	out := e.Emb.Params()
	for _, l := range e.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// network is the batched forward pass of the PnP network at precision T:
// merge compiled graphs, encode, pool, append the extra features, and
// score every dense head. Model embeds the float64 network it trains;
// Quantize converts its weights into the float32 network CompiledModel
// serves from. A network is not goroutine-safe: its layers and merger
// reuse scratch buffers.
type network[T tensor.Float] struct {
	Cfg      ModelConfig
	Enc      *EncoderOf[T]
	Heads    []*nn.SequentialOf[T]
	ExtraDim int // counters (+ cap feature) width
	Classes  int

	// merger assembles block-diagonal minibatches from compile-once
	// region artifacts with zero steady-state allocations.
	merger   rgcn.Merger
	extraBuf tensor.BufOf[T]
}

// NumHeads returns the number of classifier heads.
func (n *network[T]) NumHeads() int { return len(n.Heads) }

// Inputs returns the vocabulary size and the extra-feature width that a
// request must match.
func (n *network[T]) Inputs() (vocab, extras int) { return n.Enc.Emb.VocabSize, n.ExtraDim }

// EncodeCompiled encodes precompiled graphs in one batched pass: row i is
// the dense-head input for cgs[i]. This is the zero-rebuild serving hot
// path — request goroutines compile in parallel, the model merges plans
// in O(edges) and runs one block-diagonal forward.
func (n *network[T]) EncodeCompiled(cgs []*rgcn.CompiledGraph, extras [][]float64) *tensor.MatrixOf[T] {
	return n.encode(n.merger.Merge(cgs), extras)
}

// encode runs the encoder over a merged batch and widens each pooled row
// with its extra features, rounded to T. extras holds one row of
// ExtraDim features per graph; it may be nil only when the model uses no
// extra features.
func (n *network[T]) encode(b *rgcn.Batch, extras [][]float64) *tensor.MatrixOf[T] {
	if extras != nil || n.ExtraDim > 0 {
		if len(extras) != b.NumGraphs() {
			panic(fmt.Sprintf("core: %d extra-feature rows for %d graphs", len(extras), b.NumGraphs()))
		}
		for i, ex := range extras {
			if len(ex) != n.ExtraDim {
				panic(fmt.Sprintf("core: %d extra features for row %d, model wants %d",
					len(ex), i, n.ExtraDim))
			}
		}
	}
	pooled := n.Enc.ForwardBatch(b)
	if n.ExtraDim == 0 {
		return pooled
	}
	hidden := n.Cfg.Hidden
	full := n.extraBuf.Get(pooled.Rows, hidden+n.ExtraDim)
	for i := 0; i < pooled.Rows; i++ {
		row := full.Row(i)
		copy(row[:hidden], pooled.Row(i))
		for c, v := range extras[i] {
			row[hidden+c] = T(v)
		}
	}
	return full
}

// Logits computes head h's class scores for an encoded batch. The result
// is owned by the head and valid until its next Forward.
func (n *network[T]) Logits(encoded *tensor.MatrixOf[T], h int) *tensor.MatrixOf[T] {
	return n.Heads[h].Forward(encoded)
}

// TopKCompiled scores precompiled graphs in one encoder pass and
// returns each graph's k best classes per head, best first: out[i][h]
// lists head h's top-k picks for cgs[i]. Every head scores the whole
// batch with a single matrix multiply, so N concurrent requests cost one
// block-diagonal forward instead of N. At k=1 each list is the head's
// argmax (first-max tie-break), and all lists share one flat backing
// array, so a sweep costs a handful of allocations.
func (n *network[T]) TopKCompiled(cgs []*rgcn.CompiledGraph, extras [][]float64, k int) [][][]int {
	enc := n.EncodeCompiled(cgs, extras)
	heads := len(n.Heads)
	lists := make([][]int, len(cgs)*heads)
	flat := make([]int, len(lists)) // the k=1 picks
	for h := range n.Heads {
		logits := n.Logits(enc, h)
		for i := range cgs {
			j := i*heads + h
			if k != 1 {
				lists[j] = nn.TopK(logits, i, k)
				continue
			}
			flat[j] = nn.Argmax(logits, i)
			lists[j] = flat[j : j+1 : j+1]
		}
	}
	out := make([][][]int, len(cgs))
	for i := range out {
		out[i] = lists[i*heads : (i+1)*heads]
	}
	return out
}

// PredictCompiled is TopKCompiled at k=1, flattened: out[i][h] is head
// h's pick for cgs[i].
func (n *network[T]) PredictCompiled(cgs []*rgcn.CompiledGraph, extras [][]float64) [][]int {
	lists := n.TopKCompiled(cgs, extras, 1)
	out := make([][]int, len(lists))
	flat := make([]int, len(lists)*len(n.Heads))
	for i, heads := range lists {
		out[i] = flat[i*len(n.Heads) : (i+1)*len(n.Heads)]
		for h, l := range heads {
			out[i][h] = l[0]
		}
	}
	return out
}

// Model is the full PnP network: shared encoder plus one or more dense
// classifier heads, in float64 (its Cfg, Enc, Heads, ExtraDim and Classes
// fields come from the embedded network). Scenario 1 uses one head per
// power cap (each over the per-cap configuration space); scenario 2 and
// the cap-conditioned variant use a single head.
type Model struct {
	network[float64]

	// cgs and scoreBuf are reusable scratch for Batch and ScoreAll.
	cgs      []*rgcn.CompiledGraph
	scoreBuf tensor.Buf
}

// NewModel builds a model with nHeads heads of `classes` outputs each.
func NewModel(cfg ModelConfig, vocabSize, nHeads, classes int) *Model {
	rng := tensor.NewRNG(cfg.Seed + 0x5eed)
	m := &Model{network: network[float64]{
		Cfg:     cfg,
		Enc:     NewEncoder(cfg, vocabSize, rng),
		Classes: classes,
	}}
	if cfg.UseCounters {
		m.ExtraDim += papi.NumFeatures
	}
	if cfg.UseCapFeature {
		m.ExtraDim++
	}
	in := cfg.Hidden + m.ExtraDim
	for h := 0; h < nHeads; h++ {
		var layers []nn.Layer
		d := in
		for l := 0; l < cfg.NumDense-1; l++ {
			layers = append(layers,
				nn.NewLinear(fmt.Sprintf("head%d.fc%d", h, l), d, 2*cfg.Hidden, rng),
				nn.NewReLU())
			d = 2 * cfg.Hidden
		}
		layers = append(layers, nn.NewLinear(fmt.Sprintf("head%d.fc%d", h, cfg.NumDense-1), d, classes, rng))
		m.Heads = append(m.Heads, nn.NewSequential(layers...))
	}
	return m
}

// CompiledModel is the float32 snapshot of a trained Model that serving
// forwards on: the same forward code at float32, with every weight
// converted once by Quantize. It cannot train, and like Model it is not
// goroutine-safe, so each registry batcher owns one and forwards on it
// from its single goroutine.
type CompiledModel struct{ network[float32] }

// Quantize converts the model's weights once into a float32
// CompiledModel. The snapshot predicts independently of the source model
// afterwards (weights are copied, not shared), so the source can keep
// training while the snapshot serves.
func (m *Model) Quantize() (*CompiledModel, error) {
	q := &CompiledModel{network[float32]{Cfg: m.Cfg, Enc: convertEncoder[float32](m.Enc), ExtraDim: m.ExtraDim, Classes: m.Classes}}
	for _, h := range m.Heads {
		qh, err := nn.ConvertSequential[float32](h)
		if err != nil {
			return nil, fmt.Errorf("core: quantize: %w", err)
		}
		q.Heads = append(q.Heads, qh)
	}
	return q, nil
}

// MustQuantize is Quantize for model shapes known to be quantizable
// (every model this package builds is); it panics on failure.
func (m *Model) MustQuantize() *CompiledModel {
	q, err := m.Quantize()
	if err != nil {
		panic(err)
	}
	return q
}

// Batch merges regions' compile-once artifacts into one block-diagonal
// rgcn.Batch; row i of the batched readout is regions[i]. The batch is
// backed by the model's merger buffers and valid until the next Batch or
// EncodeCompiled call on this model.
func (m *Model) Batch(regions []*kernels.Region) *rgcn.Batch {
	if cap(m.cgs) < len(regions) {
		m.cgs = make([]*rgcn.CompiledGraph, len(regions))
	}
	m.cgs = m.cgs[:len(regions)]
	for i, r := range regions {
		m.cgs[i] = r.CompiledGraph()
	}
	return m.merger.Merge(m.cgs)
}

// PredictGraphs scores a batch of raw graphs in one encoder pass and
// returns, per graph, the argmax class of every head: out[i][h] is head
// h's pick for graphs[i].
func (m *Model) PredictGraphs(graphs []*programl.Graph, extras [][]float64) [][]int {
	cgs := make([]*rgcn.CompiledGraph, len(graphs))
	for i, g := range graphs {
		cgs[i] = rgcn.CompileGraph(g)
	}
	return m.PredictCompiled(cgs, extras)
}

// ScoreAll broadcasts one pooled graph vector against every candidate's
// extra-feature row — assembling the full (len(extras) × in) dense-head
// input in one shot — and scores head h over all candidates with a single
// matrix multiply, replacing a per-candidate loop of 1-row head passes.
// Row i of the result is the logits for candidate extras[i]; each row is
// bit-identical to the 1-row pass on the same inputs. For models with no
// extra features pass one nil extras row per desired copy. The result is
// owned by the scored head and valid until its next Forward.
func (m *Model) ScoreAll(pooled *tensor.Matrix, extras [][]float64, h int) *tensor.Matrix {
	if pooled.Rows != 1 || pooled.Cols != m.Cfg.Hidden {
		panic(fmt.Sprintf("core: ScoreAll pooled %dx%d, want 1x%d", pooled.Rows, pooled.Cols, m.Cfg.Hidden))
	}
	in := m.scoreBuf.Get(len(extras), m.Cfg.Hidden+m.ExtraDim)
	for i, ex := range extras {
		if len(ex) != m.ExtraDim {
			panic(fmt.Sprintf("core: %d extra features for candidate %d, model wants %d",
				len(ex), i, m.ExtraDim))
		}
		row := in.Row(i)
		copy(row[:m.Cfg.Hidden], pooled.Data)
		copy(row[m.Cfg.Hidden:], ex)
	}
	return m.Logits(in, h)
}

// Params returns all parameters (encoder + heads).
func (m *Model) Params() []*nn.Param {
	out := m.Enc.Params()
	for _, h := range m.Heads {
		out = append(out, h.Params()...)
	}
	return out
}

// HeadParams returns only the dense-head parameters (what gets retrained
// during transfer learning).
func (m *Model) HeadParams() []*nn.Param {
	var out []*nn.Param
	for _, h := range m.Heads {
		out = append(out, h.Params()...)
	}
	return out
}
