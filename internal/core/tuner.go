package core

import (
	"fmt"

	"pnptuner/internal/autotune"
	"pnptuner/internal/dataset"
	"pnptuner/internal/nn"
	"pnptuner/internal/papi"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/space"
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

// Target is one supervised objective a model head learns: head Head
// classifies Obj's candidates, and CapNorm (cap/TDP) is the cap feature
// its cases carry when ModelConfig.UseCapFeature is set. Every target of
// one model has the same candidate count.
type Target struct {
	Head    int
	Obj     autotune.Objective
	CapNorm float64
}

// PowerTargets returns scenario 1's targets: time under each power cap,
// one head per cap.
func PowerTargets(s *space.Space) []Target {
	ts := make([]Target, len(s.Caps()))
	for c := range ts {
		ts[c] = Target{Head: c, Obj: autotune.TimeUnderCap{Cap: c}}
	}
	return ts
}

// EDPTargets returns scenario 2's target: the joint (power cap × OpenMP
// configuration) energy-delay product on head 0.
func EDPTargets() []Target { return []Target{{Obj: autotune.EDP{}}} }

// CapTargets returns the cap-conditioned variant's targets, indexed by
// cap: time under each cap, all on head 0, told apart by the cap feature
// cap/TDP. The unseen-cap experiments train on all but one of them.
func CapTargets(d *dataset.Dataset) []Target {
	ts := make([]Target, len(d.Space.Caps()))
	for c, capW := range d.Space.Caps() {
		ts[c] = Target{Obj: autotune.TimeUnderCap{Cap: c}, CapNorm: capW / d.Machine.TDP}
	}
	return ts
}

// TrainedObjectives names the objectives a model trains for, as
// registry keys, the tune API and the CLI spell them; ObjectiveTargets
// maps each to its targets. The model-free searches also tune "energy".
var TrainedObjectives = []string{"time", "edp"}

// ObjectiveTargets maps a name in TrainedObjectives to its targets.
func ObjectiveTargets(s *space.Space, objective string) ([]Target, error) {
	switch objective {
	case "time":
		return PowerTargets(s), nil
	case "edp":
		return EDPTargets(), nil
	}
	return nil, fmt.Errorf("core: no trained model for objective %q", objective)
}

// HeadOf returns the head that scores obj in a PowerTargets or
// EDPTargets model: the cap for time under a cap, 0 for a joint
// objective.
func HeadOf(obj autotune.Objective) int {
	if o, ok := obj.(autotune.TimeUnderCap); ok {
		return o.Cap
	}
	return 0
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

// Samples builds the training set for targets over the given regions:
// one sample per region, one case per target, labelled with the target
// objective's oracle (autotune.Oracle, which reproduces the dataset's
// labels and follows a sample-refined grid) and its soft targets.
func Samples(d *dataset.Dataset, train []*dataset.RegionData, targets []Target, cfg ModelConfig) []Sample {
	samples := make([]Sample, 0, len(train))
	for _, rd := range train {
		s := Sample{Region: rd.Region, Cases: make([]Case, 0, len(targets))}
		for _, t := range targets {
			label, best := autotune.Oracle(rd, d.Space, t.Obj)
			soft := softTargets(cfg, func(i int) float64 { return t.Obj.Value(rd, d.Space, i) },
				t.Obj.NumCandidates(d.Space), best)
			s.Cases = append(s.Cases, Case{Extras: extras(cfg, rd.Counters, t.CapNorm), Head: t.Head, Label: label, Soft: soft})
		}
		samples = append(samples, s)
	}
	return samples
}

// PowerSamples is Samples for PowerTargets: the set TrainPower trains on.
func PowerSamples(d *dataset.Dataset, train []*dataset.RegionData, cfg ModelConfig) []Sample {
	return Samples(d, train, PowerTargets(d.Space), cfg)
}

// Train builds a model for targets and fits it on the train regions with
// the Table II recipe. With src nil every weight trains from scratch;
// otherwise the model borrows src's encoder weights, freezes them, and
// trains only the dense heads — the Haswell→Skylake transfer of §IV-B.
// Only restoring src's encoder can fail.
func Train(d *dataset.Dataset, train []*dataset.RegionData, targets []Target, cfg ModelConfig, src *Model) (*Model, TrainStats, error) {
	heads := 0
	for _, t := range targets {
		heads = max(heads, t.Head+1)
	}
	m := NewModel(cfg, d.Corpus.Vocab.Size(), heads, targets[0].Obj.NumCandidates(d.Space))
	if src != nil {
		// The checkpoint must describe exactly the encoder: same sizing.
		if _, err := nn.Snapshot(src.Enc.Params()).RestoreStrict(m.Enc.Params()); err != nil {
			return nil, TrainStats{}, err
		}
	}
	return m, m.fit(Samples(d, train, targets, cfg), src != nil), nil
}

// inputs gathers the regions' compile-once graphs and their extra
// features with the cap feature at capNorm.
func (n *network[T]) inputs(val []*dataset.RegionData, capNorm float64) ([]*rgcn.CompiledGraph, [][]float64) {
	cgs := make([]*rgcn.CompiledGraph, len(val))
	exs := make([][]float64, len(val))
	for i, rd := range val {
		cgs[i] = rd.Region.CompiledGraph()
		exs[i] = extras(n.Cfg, rd.Counters, capNorm)
	}
	return cgs, exs
}

// TopK scores regions in one batched encoder pass, with the cap feature
// (when the model has one) at capNorm, and maps each region ID to its k
// best classes per head, best first — the proposal shortlists hybrid
// tuning sessions refine by measurement.
func (n *network[T]) TopK(val []*dataset.RegionData, capNorm float64, k int) map[string][][]int {
	out := make(map[string][][]int, len(val))
	if len(val) == 0 {
		return out
	}
	cgs, exs := n.inputs(val, capNorm)
	for i, lists := range n.TopKCompiled(cgs, exs, k) {
		out[val[i].Region.ID] = lists
	}
	return out
}

// Picks is TopK at k=1: it maps each region ID to its one pick per head.
func (n *network[T]) Picks(val []*dataset.RegionData, capNorm float64) map[string][]int {
	out := make(map[string][]int, len(val))
	if len(val) == 0 {
		return out
	}
	cgs, exs := n.inputs(val, capNorm)
	for i, picks := range n.PredictCompiled(cgs, exs) {
		out[val[i].Region.ID] = picks
	}
	return out
}

// Result is a model trained on a LOOCV fold plus its held-out picks.
type Result struct {
	Model *Model
	Stats TrainStats
	// Pred maps region ID → one pick per head.
	Pred map[string][]int
}

// PowerResult is a trained scenario-1 model: Pred[id][c] is the config
// picked at cap c.
type PowerResult = Result

// trainFold trains a model for targets on the fold (see Train) and
// picks every held-out region.
func trainFold(d *dataset.Dataset, fold dataset.Fold, targets []Target, cfg ModelConfig, src *Model) (*Result, error) {
	m, stats, err := Train(d, fold.Train, targets, cfg, src)
	if err != nil {
		return nil, err
	}
	return &Result{Model: m, Stats: stats, Pred: m.Picks(fold.Val, 0)}, nil
}

// TrainPower trains the scenario-1 model (best config per power cap) on a
// LOOCV fold: one classifier head per cap over the per-cap configuration
// space, shared graph encoder.
func TrainPower(d *dataset.Dataset, fold dataset.Fold, cfg ModelConfig) *PowerResult {
	res, _ := trainFold(d, fold, PowerTargets(d.Space), cfg, nil) // from scratch: no error
	return res
}

// TransferPower trains a scenario-1 model for d on src's frozen encoder.
func TransferPower(src *Model, d *dataset.Dataset, fold dataset.Fold, cfg ModelConfig) (*PowerResult, error) {
	return trainFold(d, fold, PowerTargets(d.Space), cfg, src)
}

// PredictPower scores validation regions with an already-trained
// scenario-1 model (e.g. one restored by LoadModel), returning per-region
// per-cap config picks — the train-once/predict-many path.
func PredictPower(d *dataset.Dataset, m *Model, val []*dataset.RegionData) map[string][]int {
	return m.Picks(val, 0)
}

// PredictPowerQuantized is PredictPower on the float32 snapshot.
func PredictPowerQuantized(q *CompiledModel, val []*dataset.RegionData) map[string][]int {
	return q.Picks(val, 0)
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
	res, _ := trainFold(d, fold, EDPTargets(), cfg, nil) // from scratch: no error
	return &EDPResult{Model: res.Model, Stats: res.Stats, Pred: firstHead(res.Pred)}
}

// PredictEDP scores validation regions with an already-trained scenario-2
// model, returning per-region joint (cap, config) picks.
func PredictEDP(d *dataset.Dataset, m *Model, val []*dataset.RegionData) map[string]int {
	return firstHead(m.Picks(val, 0))
}

// PredictEDPQuantized is PredictEDP on the float32 snapshot.
func PredictEDPQuantized(q *CompiledModel, val []*dataset.RegionData) map[string]int {
	return firstHead(q.Picks(val, 0))
}

// firstHead narrows per-head picks to head 0's, for single-head models.
func firstHead(picks map[string][]int) map[string]int {
	out := make(map[string]int, len(picks))
	for id, p := range picks {
		out[id] = p[0]
	}
	return out
}

// Refine is the dynamic-feature refinement of §IV-B and §IV-C: it trains
// the counter-augmented model for targets (one per head) on the fold and,
// wherever a held-out static pick reaches less than threshold of its
// target's oracle value (best/value), takes the counter model's pick.
// static and the result map region ID → per-head picks.
func Refine(d *dataset.Dataset, fold dataset.Fold, targets []Target, static map[string][]int,
	threshold float64, cfg ModelConfig) map[string][]int {

	cfg.UseCounters = true
	dyn, _ := trainFold(d, fold, targets, cfg, nil) // from scratch: no error
	merged := make(map[string][]int, len(static))
	for _, rd := range fold.Val {
		id := rd.Region.ID
		out := append([]int(nil), static[id]...)
		for _, t := range targets {
			_, best := autotune.Oracle(rd, d.Space, t.Obj)
			if best/t.Obj.Value(rd, d.Space, out[t.Head]) < threshold {
				out[t.Head] = dyn.Pred[id][t.Head]
			}
		}
		merged[id] = out
	}
	return merged
}
