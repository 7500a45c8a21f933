package core

import (
	"math"
	"testing"

	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/metrics"
	"pnptuner/internal/nn"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/tensor"
)

// testConfig returns a reduced configuration that keeps unit tests fast.
func testConfig() ModelConfig {
	cfg := DefaultModelConfig()
	cfg.EmbedDim = 8
	cfg.Hidden = 8
	cfg.Epochs = 6
	return cfg
}

// trainAccuracy is the top-1 label accuracy of m over the labeled cases
// of samples, each scored through the batched prediction pass.
func trainAccuracy(m *Model, samples []Sample) float64 {
	correct, total := 0, 0
	for _, s := range samples {
		cgs := []*rgcn.CompiledGraph{s.Region.CompiledGraph()}
		for _, cs := range s.Cases {
			if m.PredictCompiled(cgs, [][]float64{cs.Extras})[0][cs.Head] == cs.Label {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total)
}

func TestModelShapes(t *testing.T) {
	c := kernels.MustCompile()
	cfg := testConfig()
	m := NewModel(cfg, c.Vocab.Size(), 4, 127)
	if len(m.Heads) != 4 {
		t.Fatalf("heads = %d", len(m.Heads))
	}
	r := c.Regions[0]
	enc := m.EncodeCompiled([]*rgcn.CompiledGraph{r.CompiledGraph()}, nil)
	if enc.Rows != 1 || enc.Cols != cfg.Hidden {
		t.Fatalf("encoded shape %dx%d", enc.Rows, enc.Cols)
	}
	logits := m.Logits(enc, 2)
	if logits.Cols != 127 {
		t.Fatalf("logits = %d classes", logits.Cols)
	}
	pick := m.PredictCompiled([]*rgcn.CompiledGraph{r.CompiledGraph()}, nil)[0][0]
	if pick < 0 || pick >= 127 {
		t.Fatalf("prediction out of range: %d", pick)
	}
}

func TestModelExtraFeatures(t *testing.T) {
	c := kernels.MustCompile()
	cfg := testConfig()
	cfg.UseCounters = true
	cfg.UseCapFeature = true
	m := NewModel(cfg, c.Vocab.Size(), 1, 10)
	if m.ExtraDim != 6 {
		t.Fatalf("extra dim = %d, want 6 (5 counters + cap)", m.ExtraDim)
	}
	ex := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.9}
	enc := m.EncodeCompiled([]*rgcn.CompiledGraph{c.Regions[0].CompiledGraph()}, [][]float64{ex})
	if enc.Cols != cfg.Hidden+6 {
		t.Fatalf("encoded width %d", enc.Cols)
	}
	for i, v := range ex {
		if enc.Data[cfg.Hidden+i] != v {
			t.Fatal("extras not appended")
		}
	}
}

func TestEncodePanicsOnWrongExtras(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c := kernels.MustCompile()
	m := NewModel(testConfig(), c.Vocab.Size(), 1, 5)
	r := c.Regions[0]
	m.Assemble(m.Enc.Forward(r, r.CompiledGraph().Adj), []float64{1, 2, 3})
}

func TestFitLearnsSeparableLabels(t *testing.T) {
	// Distinguishing compute-bound matmul regions from Monte Carlo gather
	// regions is exactly the kind of signal the GNN must extract.
	c := kernels.MustCompile()
	cfg := testConfig()
	cfg.Epochs = 30
	m := NewModel(cfg, c.Vocab.Size(), 1, 2)
	var samples []Sample
	for _, r := range c.Regions {
		var lbl int
		switch r.App {
		case "gemm", "2mm", "syrk", "syr2k", "doitgen", "trmm":
			lbl = 0
		case "XSBench", "RSBench", "Quicksilver":
			lbl = 1
		default:
			continue
		}
		samples = append(samples, Sample{Region: r, Cases: []Case{{Head: 0, Label: lbl}}})
	}
	m.Fit(samples)
	if acc := trainAccuracy(m, samples); acc < 0.9 {
		t.Fatalf("train accuracy = %.2f; GNN failed to separate matmul from Monte Carlo", acc)
	}
}

func TestFitGradientsFlowEndToEnd(t *testing.T) {
	// Finite-difference check through the full stack (embedding → RGCN ×
	// 4 → pool → dense heads) on one region.
	c := kernels.MustCompile()
	cfg := testConfig()
	m := NewModel(cfg, c.Vocab.Size(), 2, 3)
	r := c.Regions[3]
	sample := Sample{Region: r, Cases: []Case{{Head: 0, Label: 1}, {Head: 1, Label: 2}}}

	loss := func() float64 {
		pooled := m.Enc.Forward(r, r.CompiledGraph().Adj)
		total := 0.0
		for _, cs := range sample.Cases {
			l, _ := nn.SoftmaxCrossEntropy(m.Logits(m.Assemble(pooled, nil), cs.Head), []int{cs.Label})
			total += l
		}
		return total
	}

	params := m.Params()
	nn.ZeroGrads(params)
	pooled := m.Enc.Forward(r, r.CompiledGraph().Adj)
	dpool := tensor.New(1, cfg.Hidden)
	for _, cs := range sample.Cases {
		_, dlogits := nn.SoftmaxCrossEntropy(m.Logits(m.Assemble(pooled, nil), cs.Head), []int{cs.Label})
		dIn := m.Heads[cs.Head].Backward(dlogits)
		for i := 0; i < cfg.Hidden; i++ {
			dpool.Data[i] += dIn.Data[i]
		}
	}
	m.Enc.Backward(dpool)

	// Check a few parameters from different depths.
	checked := 0
	for _, p := range params {
		for i := 0; i < len(p.W.Data); i += 37 {
			const eps = 1e-6
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			if math.Abs(p.Grad.Data[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d] = %g, want %g", p.Name, i, p.Grad.Data[i], want)
			}
			checked++
			if checked > 60 {
				return
			}
		}
	}
}

func TestTrainPowerEndToEnd(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[0]
	cfg := testConfig()
	res := TrainPower(d, fold, cfg)
	if len(res.Pred) != len(fold.Val) {
		t.Fatalf("predictions = %d, want %d", len(res.Pred), len(fold.Val))
	}
	for id, picks := range res.Pred {
		if len(picks) != len(d.Space.Caps()) {
			t.Fatalf("%s: %d picks", id, len(picks))
		}
		for _, p := range picks {
			if p < 0 || p >= d.Space.NumConfigs() {
				t.Fatalf("%s: pick %d out of range", id, p)
			}
		}
	}
	if acc := trainAccuracy(res.Model, PowerSamples(d, fold.Train, cfg)); acc <= 0.05 {
		t.Fatalf("training did not move accuracy: %.2f after %+v", acc, res.Stats)
	}
}

func TestTrainEDPEndToEnd(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[1]
	res := TrainEDP(d, fold, testConfig())
	for id, pick := range res.Pred {
		if pick < 0 || pick >= d.Space.NumJoint() {
			t.Fatalf("%s: joint pick %d out of range", id, pick)
		}
	}
	if len(res.Pred) != len(fold.Val) {
		t.Fatal("missing predictions")
	}
}

func TestTrainUnseenCapEndToEnd(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[2]
	cfg := testConfig()
	cfg.UseCounters, cfg.UseCapFeature = true, true
	// Every cap but the lowest trains one shared head; the lowest is
	// scored unseen through the cap feature.
	caps := CapTargets(d)
	train := caps[1:]
	for _, s := range Samples(d, fold.Train, train, cfg) {
		if len(s.Cases) != 3 {
			t.Fatalf("%d cases per region, want 3 (held-out cap excluded)", len(s.Cases))
		}
	}
	m, _, err := Train(d, fold.Train, train, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumHeads() != 1 {
		t.Fatalf("%d heads, want 1", m.NumHeads())
	}
	pred := m.Picks(fold.Val, caps[0].CapNorm)
	if len(pred) != len(fold.Val) {
		t.Fatal("missing predictions")
	}
	for _, picks := range pred {
		if p := picks[0]; p < 0 || p >= d.Space.NumConfigs() {
			t.Fatalf("pick %d out of range", p)
		}
	}
}

func TestTransferPowerReusesEncoder(t *testing.T) {
	dH := dataset.MustBuild(hw.Haswell())
	dS := dataset.MustBuild(hw.Skylake())
	cfg := testConfig()
	src := TrainPower(dH, dH.LOOCVFolds()[0], cfg)

	foldS := dS.LOOCVFolds()[0]
	dst, err := TransferPower(src.Model, dS, foldS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Encoder weights must be identical to the source.
	srcEnc := src.Model.Enc.Params()
	dstEnc := dst.Model.Enc.Params()
	for i := range srcEnc {
		for j := range srcEnc[i].W.Data {
			if srcEnc[i].W.Data[j] != dstEnc[i].W.Data[j] {
				t.Fatal("transfer did not copy encoder weights")
			}
		}
	}
	// Frozen training must update far fewer parameters.
	if dst.Stats.UpdatedParams >= src.Stats.UpdatedParams {
		t.Fatalf("frozen training updated %d params vs full %d",
			dst.Stats.UpdatedParams, src.Stats.UpdatedParams)
	}
}

func TestTransferIsFasterThanFullTraining(t *testing.T) {
	// The §IV-B claim: reusing the GNN encoder speeds up training
	// substantially (the paper reports 4.18×).
	dH := dataset.MustBuild(hw.Haswell())
	dS := dataset.MustBuild(hw.Skylake())
	cfg := testConfig()
	cfg.Epochs = 10
	src := TrainPower(dH, dH.LOOCVFolds()[0], cfg)
	full := TrainPower(dS, dS.LOOCVFolds()[0], cfg)
	xfer, err := TransferPower(src.Model, dS, dS.LOOCVFolds()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(full.Stats.Duration) / float64(xfer.Stats.Duration)
	if speedup < 1.5 {
		t.Fatalf("transfer speedup = %.2fx, want well above 1", speedup)
	}
}

func TestRefineWithCountersOnlyChangesPoorPredictions(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[4]
	cfg := testConfig()
	static := TrainPower(d, fold, cfg)
	merged := Refine(d, fold, PowerTargets(d.Space), static.Pred, 0.95, cfg)
	for _, rd := range fold.Val {
		st := static.Pred[rd.Region.ID]
		mg := merged[rd.Region.ID]
		for ci := range st {
			norm := rd.BestTime(ci) / rd.Results[ci][st[ci]].TimeSec
			if norm >= 0.95 && mg[ci] != st[ci] {
				t.Fatalf("refinement replaced an already-good prediction (norm %.3f)", norm)
			}
		}
	}
}

func TestPredictionQualityBeatsNaive(t *testing.T) {
	// The trained model's predictions must comfortably beat always-default
	// on normalized speedup over a couple of folds.
	d := dataset.MustBuild(hw.Haswell())
	cfg := testConfig()
	cfg.Epochs = 25
	var model, def []float64
	for _, fold := range d.LOOCVFolds()[:3] {
		res := TrainPower(d, fold, cfg)
		for _, rd := range fold.Val {
			for ci := range d.Space.Caps() {
				best := rd.BestTime(ci)
				model = append(model, best/rd.Results[ci][res.Pred[rd.Region.ID][ci]].TimeSec)
				def = append(def, best/rd.DefaultResult(ci, d.Space).TimeSec)
			}
		}
	}
	gm, gd := metrics.GeoMean(model), metrics.GeoMean(def)
	if gm <= gd {
		t.Fatalf("model normalized %.3f not better than default %.3f", gm, gd)
	}
}
