package core

import (
	"fmt"
	"time"

	"pnptuner/internal/dataset"
	"pnptuner/internal/kernels"
	"pnptuner/internal/nn"
	"pnptuner/internal/tensor"
)

// Case is one supervised target attached to a region: the extra features
// to concatenate to the pooled graph vector, the head to train, and the
// class label. When Soft is non-nil it is a target distribution over the
// head's classes (soft labels over the near-optimal configuration set);
// Label remains the argmax for accuracy reporting.
type Case struct {
	Extras []float64
	Head   int
	Label  int
	Soft   []float64
}

// Sample is one training example: a region and its supervised cases. All
// cases share a single (expensive) encoder pass per visit — the per-cap
// heads of scenario 1 and the per-cap input features of the unseen-cap
// variant both ride on one graph encoding.
type Sample struct {
	Region *kernels.Region
	Cases  []Case
}

// TrainStats reports a fit run.
type TrainStats struct {
	Epochs    int
	FinalLoss float64
	// Duration is the wall time of the epochs.
	Duration time.Duration
	// UpdatedParams is the number of parameters given to the optimizer
	// (smaller under transfer learning).
	UpdatedParams int
}

// Fit trains the model on samples with the Table II recipe: shuffled
// mini-batches of Cfg.BatchSize, cross-entropy loss summed over labeled
// heads, AdamW(amsgrad), gradient clipping.
func (m *Model) Fit(samples []Sample) TrainStats {
	return m.fit(samples, false)
}

// encodeAll runs one batched encoder pass over every sample, returning a
// len(samples)×Hidden pooled matrix (row i for samples[i]).
func (m *Model) encodeAll(samples []Sample) *tensor.Matrix {
	regions := make([]*kernels.Region, len(samples))
	for i, s := range samples {
		regions[i] = s.Region
	}
	return m.Enc.ForwardBatch(m.Batch(regions))
}

// caseRow locates one labeled case inside a minibatch: bi indexes the
// batch (and the pooled/dpool rows), si/ci the sample and case.
type caseRow struct {
	bi, si, ci int
}

// fitScratch is the epoch-persistent training arena: every buffer the
// minibatch loop touches lives here and is reused across minibatches and
// epochs, so steady-state training steps allocate (next to) nothing.
type fitScratch struct {
	perm     []int
	batches  [][]int
	regions  []*kernels.Region
	identity []int
	rows     [][]caseRow // labeled cases grouped per head
	dpoolBuf tensor.Buf
	inBuf    tensor.Buf // assembled (cases × in) head input
	dlBuf    tensor.Buf // (cases × classes) logit gradients
}

// headPassBatch runs every labeled case of the minibatch through its
// dense head, vectorized per head: all of head h's cases assemble into
// one (cases × in) matrix scored and backpropagated in single matrix
// passes, instead of one 1-row pass per case. poolRow[bi] is the row of
// pooled holding batch[bi]'s graph encoding. Head gradients accumulate as
// in the per-case path (same row order, so the sums agree); when dpool is
// non-nil, each case's input gradient accumulates into dpool row bi. It
// returns the summed loss and case count.
func (m *Model) headPassBatch(sc *fitScratch, samples []Sample, batch []int,
	pooled *tensor.Matrix, poolRow []int, dpool *tensor.Matrix) (float64, int) {

	if sc.rows == nil {
		sc.rows = make([][]caseRow, len(m.Heads))
	}
	for h := range sc.rows {
		sc.rows[h] = sc.rows[h][:0]
	}
	for bi, si := range batch {
		for ci, cs := range samples[si].Cases {
			if cs.Label < 0 {
				continue
			}
			sc.rows[cs.Head] = append(sc.rows[cs.Head], caseRow{bi: bi, si: si, ci: ci})
		}
	}

	hidden := m.Cfg.Hidden
	width := hidden + m.ExtraDim
	loss, n := 0.0, 0
	for h := range m.Heads {
		rows := sc.rows[h]
		if len(rows) == 0 {
			continue
		}
		in := sc.inBuf.Get(len(rows), width)
		for r, cr := range rows {
			cs := &samples[cr.si].Cases[cr.ci]
			if len(cs.Extras) != m.ExtraDim {
				panic(fmt.Sprintf("core: %d extra features, model wants %d", len(cs.Extras), m.ExtraDim))
			}
			row := in.Row(r)
			copy(row[:hidden], pooled.Row(poolRow[cr.bi]))
			copy(row[hidden:], cs.Extras)
		}
		logits := m.Heads[h].Forward(in)
		dlogits := sc.dlBuf.Get(len(rows), m.Classes)
		for r, cr := range rows {
			cs := &samples[cr.si].Cases[cr.ci]
			if cs.Soft != nil {
				loss += nn.SoftCrossEntropyAt(logits, r, cs.Soft, dlogits)
			} else {
				loss += nn.SoftmaxCrossEntropyAt(logits, r, cs.Label, dlogits)
			}
			n++
		}
		dIn := m.Heads[h].Backward(dlogits)
		if dpool != nil {
			for r, cr := range rows {
				drow := dpool.Row(cr.bi)
				for c, v := range dIn.Row(r)[:hidden] {
					drow[c] += v
				}
			}
		}
	}
	return loss, n
}

// fit runs the Table II recipe; frozen trains only the dense heads,
// keeping the encoder fixed — the transfer-learning path of §IV-B. A
// frozen encoder's graph encodings are computed once and reused across
// epochs, which is where the paper's ~4× training speedup comes from.
func (m *Model) fit(samples []Sample, frozen bool) TrainStats {
	start := time.Now()
	cfg := m.Cfg
	var params []*nn.Param
	if frozen {
		params = m.HeadParams()
	} else {
		params = m.Params()
	}
	opt := nn.NewAdam(nn.AdamConfig{
		LR: cfg.LR, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		WeightDecay: cfg.WeightDecay, AMSGrad: cfg.AMSGrad,
	})
	rng := tensor.NewRNG(cfg.Seed + 0xf17)

	// Frozen encoder: precompute every pooled encoding in one batched pass.
	var cached *tensor.Matrix
	if frozen && len(samples) > 0 {
		cached = m.encodeAll(samples)
	}

	sc := &fitScratch{perm: make([]int, len(samples))}
	stats := TrainStats{Epochs: cfg.Epochs, UpdatedParams: countParams(params)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.PermInto(sc.perm)
		sc.batches = dataset.MinibatchesInto(sc.batches, sc.perm, cfg.BatchSize)
		epochLoss, nLoss := 0.0, 0
		for _, batch := range sc.batches {
			nn.ZeroGrads(params)
			if frozen {
				// Cached row si holds sample si's encoding.
				l, n := m.headPassBatch(sc, samples, batch, cached, batch, nil)
				epochLoss += l
				nLoss += n
			} else {
				// One block-diagonal encoder pass scores the whole
				// minibatch from compile-once plans; the vectorized head
				// passes accumulate their pooled-vector gradients
				// row-wise, and a single batched backward pass pushes
				// them through the (expensive) encoder.
				sc.regions = growRegions(sc.regions, len(batch))
				sc.identity = growIdentity(sc.identity, len(batch))
				for bi, si := range batch {
					sc.regions[bi] = samples[si].Region
				}
				pooled := m.Enc.ForwardBatch(m.Batch(sc.regions))
				dpool := sc.dpoolBuf.GetZeroed(len(batch), cfg.Hidden)
				l, n := m.headPassBatch(sc, samples, batch, pooled, sc.identity, dpool)
				epochLoss += l
				nLoss += n
				if n > 0 {
					m.Enc.BackwardBatch(dpool)
				}
			}
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(params, cfg.ClipNorm)
			}
			opt.Step(params)
		}
		if nLoss > 0 {
			stats.FinalLoss = epochLoss / float64(nLoss)
		}
	}

	stats.Duration = time.Since(start)
	return stats
}

// growRegions resizes a region scratch slice, reusing its backing array.
func growRegions(s []*kernels.Region, n int) []*kernels.Region {
	if cap(s) < n {
		return make([]*kernels.Region, n)
	}
	return s[:n]
}

// growIdentity resizes an identity-index slice (poolRow for the
// non-frozen path, where batch row bi pools at row bi).
func growIdentity(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	s = make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func countParams(params []*nn.Param) int {
	n := 0
	for _, p := range params {
		n += len(p.W.Data)
	}
	return n
}
