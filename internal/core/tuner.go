package core

import (
	"pnptuner/internal/autotune"
	"pnptuner/internal/dataset"
	"pnptuner/internal/kernels"
	"pnptuner/internal/nn"
	"pnptuner/internal/papi"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/tensor"
)

// extras assembles the extra-feature vector for a region under cfg.
func extras(cfg ModelConfig, counters papi.Counters, capNorm float64) []float64 {
	var out []float64
	if cfg.UseCounters {
		f := counters.Features()
		out = append(out, f[:]...)
	}
	if cfg.UseCapFeature {
		out = append(out, capNorm)
	}
	return out
}

// PowerResult is a trained scenario-1 model plus its held-out predictions.
type PowerResult struct {
	Model *Model
	Stats TrainStats
	// Pred maps region ID → per-cap predicted config index.
	Pred map[string][]int
}

// TrainPower trains the scenario-1 model (best config per power cap) on a
// LOOCV fold: one classifier head per cap over the per-cap configuration
// space, shared graph encoder.
func TrainPower(d *dataset.Dataset, fold dataset.Fold, cfg ModelConfig) *PowerResult {
	nCaps := len(d.Space.Caps())
	m := NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	samples := powerSamples(d, fold.Train, cfg)
	stats := m.Fit(samples)
	return &PowerResult{Model: m, Stats: stats, Pred: PredictPower(d, m, fold.Val)}
}

// TransferPower trains a scenario-1 model for d reusing a source model's
// encoder (the Haswell→Skylake trick of §IV-B): encoder weights are
// restored and frozen; only the dense heads train.
func TransferPower(src *Model, d *dataset.Dataset, fold dataset.Fold, cfg ModelConfig) (*PowerResult, error) {
	nCaps := len(d.Space.Caps())
	m := NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	if _, err := m.RestoreEncoder(src.EncoderCheckpoint()); err != nil {
		return nil, err
	}
	samples := powerSamples(d, fold.Train, cfg)
	stats := m.FitFrozen(samples)
	return &PowerResult{Model: m, Stats: stats, Pred: PredictPower(d, m, fold.Val)}, nil
}

// softTargets builds the near-optimal label distribution: p ∝ (best/v)^γ
// for entries within 20% of the best value (values are times or EDPs;
// lower is better). Returns nil when soft labels are disabled.
func softTargets(cfg ModelConfig, values func(int) float64, n int, best float64) []float64 {
	if !cfg.SoftLabels {
		return nil
	}
	gamma := cfg.SoftGamma
	if gamma <= 0 {
		gamma = 24
	}
	p := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		r := best / values(i)
		if r >= 0.8 {
			w := pow(r, gamma)
			p[i] = w
			sum += w
		}
	}
	if sum <= 0 {
		return nil
	}
	inv := 1 / sum
	for i := range p {
		p[i] *= inv
	}
	return p
}

// pow is a fast integer-ish power for the soft-label sharpening exponent.
func pow(x, g float64) float64 {
	r := 1.0
	for g >= 1 {
		r *= x
		g--
	}
	return r
}

// PowerSamples builds the scenario-1 training set for the given regions:
// one sample per region, one case per power cap (head). Exported so
// benchmarks and serving-side retraining can assemble the same set
// TrainPower trains on.
func PowerSamples(d *dataset.Dataset, train []*dataset.RegionData, cfg ModelConfig) []Sample {
	return powerSamples(d, train, cfg)
}

func powerSamples(d *dataset.Dataset, train []*dataset.RegionData, cfg ModelConfig) []Sample {
	samples := make([]Sample, 0, len(train))
	for _, rd := range train {
		s := Sample{Region: rd.Region}
		ex := extras(cfg, rd.Counters, 0)
		for h, lbl := range rd.BestTimeCfg {
			// Labels and soft targets read the same objective the engine
			// searches and the figures report.
			obj := autotune.TimeUnderCap{Cap: h}
			soft := softTargets(cfg, func(i int) float64 { return obj.Value(rd, d.Space, i) },
				d.Space.NumConfigs(), obj.Value(rd, d.Space, lbl))
			s.Cases = append(s.Cases, Case{Extras: ex, Head: h, Label: lbl, Soft: soft})
		}
		samples = append(samples, s)
	}
	return samples
}

// encodeRegions batch-encodes the regions of val with their per-region
// extra features: row i of the result feeds the heads for val[i].
func encodeRegions(m *Model, cfg ModelConfig, val []*dataset.RegionData, capNorm float64) *tensor.Matrix {
	regions := make([]*kernels.Region, len(val))
	exs := make([][]float64, len(val))
	for i, rd := range val {
		regions[i] = rd.Region
		exs[i] = extras(cfg, rd.Counters, capNorm)
	}
	return m.EncodeBatch(regions, exs)
}

// regionPicks scores every validation region in one batched encoder pass
// (capNorm 0) and returns each region's argmax pick of every head.
// Per-region pick slices share one flat backing array, so a full sweep
// costs a handful of allocations.
func regionPicks[T tensor.Float](n *network[T], val []*dataset.RegionData) [][]int {
	cgs := make([]*rgcn.CompiledGraph, len(val))
	exs := make([][]float64, len(val))
	for i, rd := range val {
		cgs[i] = rd.Region.CompiledGraph()
		exs[i] = extras(n.Cfg, rd.Counters, 0)
	}
	return n.PredictCompiled(cgs, exs)
}

// powerPicks maps each validation region to its per-cap config picks.
func powerPicks[T tensor.Float](n *network[T], val []*dataset.RegionData) map[string][]int {
	pred := make(map[string][]int, len(val))
	if len(val) == 0 {
		return pred
	}
	for i, picks := range regionPicks(n, val) {
		pred[val[i].Region.ID] = picks
	}
	return pred
}

// edpPicks maps each validation region to its joint (cap, config) pick.
func edpPicks[T tensor.Float](n *network[T], val []*dataset.RegionData) map[string]int {
	pred := make(map[string]int, len(val))
	if len(val) == 0 {
		return pred
	}
	for i, picks := range regionPicks(n, val) {
		pred[val[i].Region.ID] = picks[0]
	}
	return pred
}

// PredictPower scores validation regions with an already-trained
// scenario-1 model (e.g. one restored by LoadModel), returning per-region
// per-cap config picks — the train-once/predict-many path.
func PredictPower(d *dataset.Dataset, m *Model, val []*dataset.RegionData) map[string][]int {
	return powerPicks(&m.network, val)
}

// PredictPowerQuantized is PredictPower on the float32 snapshot.
func PredictPowerQuantized(q *CompiledModel, val []*dataset.RegionData) map[string][]int {
	return powerPicks(&q.network, val)
}

// PredictEDP scores validation regions with an already-trained scenario-2
// model, returning per-region joint (cap, config) picks.
func PredictEDP(d *dataset.Dataset, m *Model, val []*dataset.RegionData) map[string]int {
	return edpPicks(&m.network, val)
}

// PredictEDPQuantized is PredictEDP on the float32 snapshot.
func PredictEDPQuantized(q *CompiledModel, val []*dataset.RegionData) map[string]int {
	return edpPicks(&q.network, val)
}

// EDPResult is a trained scenario-2 model plus its held-out predictions.
type EDPResult struct {
	Model *Model
	Stats TrainStats
	// Pred maps region ID → predicted joint (cap, config) index.
	Pred map[string]int
}

// TrainEDP trains the scenario-2 model: a single classifier over the
// joint 508-point (power cap × OpenMP configuration) space targeting the
// minimum energy-delay product.
func TrainEDP(d *dataset.Dataset, fold dataset.Fold, cfg ModelConfig) *EDPResult {
	m := NewModel(cfg, d.Corpus.Vocab.Size(), 1, d.Space.NumJoint())
	stats := m.Fit(EDPSamples(d, fold.Train, cfg))
	return &EDPResult{Model: m, Stats: stats, Pred: PredictEDP(d, m, fold.Val)}
}

// EDPSamples builds the scenario-2 training set for the given regions:
// one single-head joint-label case per region. Exported (like
// PowerSamples) so serving-side retraining assembles the same set
// TrainEDP trains on — against a sample-refined dataset, the labels and
// soft targets shift with the measured grid.
func EDPSamples(d *dataset.Dataset, train []*dataset.RegionData, cfg ModelConfig) []Sample {
	obj := autotune.EDP{}
	samples := make([]Sample, 0, len(train))
	for _, rd := range train {
		soft := softTargets(cfg, func(j int) float64 { return obj.Value(rd, d.Space, j) },
			d.Space.NumJoint(), rd.BestEDP(d.Space))
		samples = append(samples, Sample{
			Region: rd.Region,
			Cases:  []Case{{Extras: extras(cfg, rd.Counters, 0), Head: 0, Label: rd.BestEDPJoint, Soft: soft}},
		})
	}
	return samples
}

// UnseenCapResult is a cap-conditioned model evaluated at a power
// constraint excluded from training (Figs. 4–5).
type UnseenCapResult struct {
	Model *Model
	Stats TrainStats
	// Pred maps region ID → predicted config index at the unseen cap.
	Pred map[string]int
}

// TrainUnseenCap trains the cap-conditioned variant: counters and the
// normalized power cap join the feature set, a single head classifies the
// per-cap configuration space, and every measurement at the target cap is
// excluded from training (in addition to the LOOCV holdout).
func TrainUnseenCap(d *dataset.Dataset, fold dataset.Fold, targetCapIdx int, cfg ModelConfig) *UnseenCapResult {
	cfg.UseCounters = true
	cfg.UseCapFeature = true
	m := NewModel(cfg, d.Corpus.Vocab.Size(), 1, d.Space.NumConfigs())

	caps := d.Space.Caps()
	tdp := d.Machine.TDP
	var samples []Sample
	for _, rd := range fold.Train {
		s := Sample{Region: rd.Region}
		for ci := range caps {
			if ci == targetCapIdx {
				continue
			}
			obj := autotune.TimeUnderCap{Cap: ci}
			soft := softTargets(cfg, func(i int) float64 { return obj.Value(rd, d.Space, i) },
				d.Space.NumConfigs(), obj.Value(rd, d.Space, rd.BestTimeCfg[ci]))
			s.Cases = append(s.Cases, Case{
				Extras: extras(cfg, rd.Counters, caps[ci]/tdp),
				Head:   0,
				Label:  rd.BestTimeCfg[ci],
				Soft:   soft,
			})
		}
		samples = append(samples, s)
	}
	stats := m.Fit(samples)

	pred := make(map[string]int, len(fold.Val))
	if len(fold.Val) > 0 {
		logits := m.Logits(encodeRegions(m, cfg, fold.Val, caps[targetCapIdx]/tdp), 0)
		for i, rd := range fold.Val {
			pred[rd.Region.ID] = nn.Argmax(logits, i)
		}
	}
	return &UnseenCapResult{Model: m, Stats: stats, Pred: pred}
}

// TopKPower returns, per validation region and cap, the model's k
// highest-scoring config indices (best first) from one batched encoder
// pass — the proposal shortlists hybrid tuning sessions refine by
// measurement.
func TopKPower(d *dataset.Dataset, m *Model, val []*dataset.RegionData, k int) map[string][][]int {
	out := make(map[string][][]int, len(val))
	if len(val) == 0 {
		return out
	}
	enc := encodeRegions(m, m.Cfg, val, 0)
	nCaps := len(d.Space.Caps())
	lists := make([][][]int, len(val))
	for i, rd := range val {
		lists[i] = make([][]int, nCaps)
		out[rd.Region.ID] = lists[i]
	}
	for h := 0; h < nCaps; h++ {
		logits := m.Logits(enc, h)
		for i := range val {
			lists[i][h] = nn.TopK(logits, i, k)
		}
	}
	return out
}

// TopKEDP returns, per validation region, the scenario-2 model's k
// highest-scoring joint (cap, config) labels, best first, from one
// batched encoder pass.
func TopKEDP(d *dataset.Dataset, m *Model, val []*dataset.RegionData, k int) map[string][]int {
	out := make(map[string][]int, len(val))
	if len(val) == 0 {
		return out
	}
	logits := m.Logits(encodeRegions(m, m.Cfg, val, 0), 0)
	for i, rd := range val {
		out[rd.Region.ID] = nn.TopK(logits, i, k)
	}
	return out
}

// HybridPower picks, per validation region and cap, the best of the
// model's top-k candidates by measuring them through a noise-free engine
// session (k executions per cap instead of BLISS's 20 per region). All
// validation regions encode in one batched pass; only the per-(region,
// cap) refinement runs through the engine.
func HybridPower(d *dataset.Dataset, res *PowerResult, fold dataset.Fold, k int) map[string][]int {
	topk := TopKPower(d, res.Model, fold.Val, k)
	out := make(map[string][]int, len(fold.Val))
	nCaps := len(d.Space.Caps())
	for _, rd := range fold.Val {
		picks := make([]int, nCaps)
		for ci := range picks {
			p := autotune.Problem{
				Obj:    autotune.TimeUnderCap{Cap: ci},
				Space:  d.Space,
				Budget: k,
				Seed:   rd.Region.Seed,
			}
			eval := autotune.NewOracle(rd, d.Space, p.Obj)
			picks[ci] = autotune.Run(p, eval, autotune.NewShortlist(topk[rd.Region.ID][ci])).Best
		}
		out[rd.Region.ID] = picks
	}
	return out
}

// RefineEDPWithCounters is the §IV-C analogue of RefineWithCounters:
// regions whose static EDP prediction falls below a normalized-improvement
// threshold are re-predicted with the dynamic-feature model.
func RefineEDPWithCounters(d *dataset.Dataset, fold dataset.Fold, staticPred map[string]int,
	threshold float64, cfg ModelConfig) map[string]int {

	cfg.UseCounters = true
	dyn := TrainEDP(d, fold, cfg)
	merged := make(map[string]int, len(staticPred))
	for _, rd := range fold.Val {
		pick := staticPred[rd.Region.ID]
		ci, ki := d.Space.SplitJoint(pick)
		best := rd.BestEDP(d.Space)
		got := rd.Results[ci][ki].EDP()
		if best/got < threshold {
			pick = dyn.Pred[rd.Region.ID]
		}
		merged[rd.Region.ID] = pick
	}
	return merged
}

// RefineWithCounters mirrors the paper's §IV-B refinement: regions whose
// static prediction falls below a normalized-speedup threshold are
// re-predicted with the dynamic-feature model. It returns the merged
// per-cap predictions.
func RefineWithCounters(d *dataset.Dataset, fold dataset.Fold, staticPred map[string][]int,
	threshold float64, cfg ModelConfig) map[string][]int {

	cfg.UseCounters = true
	dyn := TrainPower(d, fold, cfg)
	merged := make(map[string][]int, len(staticPred))
	for _, rd := range fold.Val {
		static := staticPred[rd.Region.ID]
		out := make([]int, len(static))
		copy(out, static)
		for ci := range static {
			best := rd.BestTime(ci)
			got := rd.Results[ci][static[ci]].TimeSec
			if best/got < threshold {
				out[ci] = dyn.Pred[rd.Region.ID][ci]
			}
		}
		merged[rd.Region.ID] = out
	}
	return merged
}
