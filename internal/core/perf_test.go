package core

// Parity and allocation-regression tests for the compile-once graph
// pipeline (ISSUE 3): the compiled/merged path must be bit-identical to
// the rebuild-from-edge-lists path on real corpus graphs, ScoreAll must
// be bit-identical to the per-config 1-row loop it replaces, and the
// steady-state training step and prediction sweep must stay within their
// allocation budgets (≥5× below the pre-compile-once baseline of ~15.5k
// allocs per training epoch and ~370 per sweep).

import (
	"testing"

	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/tensor"
)

// TestCompiledPipelineMatchesRawBatch: encoding corpus regions through
// the compile-once pipeline (cached CompiledGraph artifacts merged by
// plan-copy) is bit-identical to encoding a batch rebuilt from the raw
// graphs' edge lists.
func TestCompiledPipelineMatchesRawBatch(t *testing.T) {
	c := kernels.MustCompile()
	cfg := testConfig()
	m := NewModel(cfg, c.Vocab.Size(), 1, 16)
	regions := c.Regions[:12]
	graphs := make([]*programl.Graph, len(regions))
	for i, r := range regions {
		graphs[i] = r.Graph
	}
	ref := m.Enc.ForwardBatch(rgcn.NewBatch(graphs, nil)).Clone()
	got := m.Enc.ForwardBatch(m.Batch(regions))
	if ref.Rows != got.Rows || ref.Cols != got.Cols {
		t.Fatalf("shape %dx%d vs %dx%d", ref.Rows, ref.Cols, got.Rows, got.Cols)
	}
	for i := range ref.Data {
		if ref.Data[i] != got.Data[i] {
			t.Fatalf("pooled bit-drift at %d: %g vs %g", i, ref.Data[i], got.Data[i])
		}
	}
}

// TestScoreAllMatchesPerConfigLoop: scoring every candidate extras row in
// one assembled matrix pass is bit-identical to the per-candidate loop of
// Assemble + 1-row Logits calls it replaces.
func TestScoreAllMatchesPerConfigLoop(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	cfg := testConfig()
	cfg.UseCounters = true
	cfg.UseCapFeature = true
	m := NewModel(cfg, d.Corpus.Vocab.Size(), 1, d.Space.NumConfigs())
	rd := d.Regions[3]

	// Candidate sweep: one extras row per power cap (the cap-conditioned
	// prediction profile), plus a duplicate to exercise repeated rows.
	var exs [][]float64
	for _, capW := range d.Space.Caps() {
		exs = append(exs, extras(cfg, rd.Counters, capW/d.Machine.TDP))
	}
	exs = append(exs, exs[0])

	pooled := m.Enc.Forward(rd.Region, rd.Region.CompiledGraph().Adj)
	// Reference: per-config 1-row head passes, copied out before the next
	// pass reuses the head buffers.
	ref := make([][]float64, len(exs))
	for i, ex := range exs {
		logits := m.Logits(m.Assemble(pooled, ex), 0)
		row := make([]float64, logits.Cols)
		copy(row, logits.Row(0))
		ref[i] = row
	}
	got := m.ScoreAll(pooled, exs, 0)
	if got.Rows != len(exs) || got.Cols != d.Space.NumConfigs() {
		t.Fatalf("ScoreAll shape %dx%d", got.Rows, got.Cols)
	}
	for i, row := range ref {
		for c, v := range row {
			if got.At(i, c) != v {
				t.Fatalf("candidate %d class %d: ScoreAll %g vs per-config %g", i, c, got.At(i, c), v)
			}
		}
	}
}

// pinWorkers serializes the pool for the duration of an allocation
// measurement: the RGCN layer forward's row split spawns goroutines
// through ParallelFor, which would otherwise count against the budget on
// multi-core machines.
func pinWorkers(t *testing.T) {
	t.Helper()
	restore := tensor.SetWorkerCap(1)
	t.Cleanup(restore)
}

// TestTrainStepAllocsRegression bounds the steady-state allocations of a
// full training epoch (every minibatch of the corpus). The pre-ISSUE-3
// path allocated ~15.5k times per epoch; the compiled pipeline with
// epoch-persistent arenas must stay ≥5× below that.
func TestTrainStepAllocsRegression(t *testing.T) {
	pinWorkers(t)
	d := dataset.MustBuild(hw.Haswell())
	cfg := testConfig()
	cfg.Epochs = 1
	m := NewModel(cfg, d.Corpus.Vocab.Size(), len(d.Space.Caps()), d.Space.NumConfigs())
	samples := PowerSamples(d, d.Regions, cfg)
	m.Fit(samples) // reach buffer high-water marks
	per := testing.AllocsPerRun(3, func() { m.Fit(samples) })
	// Measured ~960 at the time of writing (optimizer state and the
	// deterministic reduction scratch dominate); budget leaves headroom
	// while staying ~10× under the old path.
	if per > 1500 {
		t.Fatalf("training epoch allocates %.0f times, budget 1500 (pre-compile-once: ~15500)", per)
	}
}

// TestPredictSweepAllocsRegression bounds the allocations of a full
// prediction sweep (every corpus region scored across every per-cap
// head). The pre-ISSUE-3 path allocated ~370 times per sweep.
func TestPredictSweepAllocsRegression(t *testing.T) {
	pinWorkers(t)
	d := dataset.MustBuild(hw.Haswell())
	cfg := testConfig()
	cfg.Epochs = 1
	m := NewModel(cfg, d.Corpus.Vocab.Size(), len(d.Space.Caps()), d.Space.NumConfigs())
	m.Fit(PowerSamples(d, d.Regions, cfg))
	PredictPower(d, m, d.Regions) // warm buffers
	per := testing.AllocsPerRun(5, func() { PredictPower(d, m, d.Regions) })
	// Measured 7 at the time of writing (result map + flat picks + the
	// two encode scratch slices); budget leaves headroom while staying
	// ~10× under the old path.
	if per > 40 {
		t.Fatalf("prediction sweep allocates %.0f times, budget 40 (pre-compile-once: ~370)", per)
	}
}

// TestServingPathCompiledParity: the serving path (PredictCompiled over
// precompiled wire graphs) picks exactly what PredictGraphs picks over
// the same raw graphs.
func TestServingPathCompiledParity(t *testing.T) {
	c := kernels.MustCompile()
	cfg := testConfig()
	m := NewModel(cfg, c.Vocab.Size(), 3, 32)
	graphs := []*programl.Graph{c.Regions[0].Graph, c.Regions[5].Graph, c.Regions[9].Graph}
	ref := m.PredictGraphs(graphs, nil)
	cgs := make([]*rgcn.CompiledGraph, len(graphs))
	for i, g := range graphs {
		cgs[i] = rgcn.CompileGraph(g)
	}
	got := m.PredictCompiled(cgs, nil)
	for i := range ref {
		for h := range ref[i] {
			if ref[i][h] != got[i][h] {
				t.Fatalf("graph %d head %d: raw %d vs compiled %d", i, h, ref[i][h], got[i][h])
			}
		}
	}
}

// BenchmarkTrainFold times one leave-one-application-out fold per
// iteration, trained as the benchmark's train-loocv workload trains it:
// the default model at 6 epochs, then the held-out predictions, with
// iterations alternating TrainPower and TrainEDP on the Haswell corpus's
// first fold.
func BenchmarkTrainFold(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[0]
	cfg := DefaultModelConfig()
	cfg.Epochs = 6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			TrainPower(d, fold, cfg)
		} else {
			TrainEDP(d, fold, cfg)
		}
	}
}

// BenchmarkFitEpoch measures training epoch throughput on the full
// scenario-1 corpus: one Fit call with a single epoch — minibatch
// assembly, block-diagonal encoder forward/backward, head passes, and the
// optimizer step for every minibatch of the 68-region corpus. This is the
// headline training hot path the compile-once pipeline exists for; the
// ledger's core.fit_epoch_ms row times the same call.
func BenchmarkFitEpoch(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	cfg := DefaultModelConfig()
	cfg.Epochs = 1
	nCaps := len(d.Space.Caps())
	m := NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	samples := PowerSamples(d, d.Regions, cfg)
	m.Fit(samples) // warm caches so iterations measure steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Fit(samples)
	}
}

// BenchmarkPredictSweep measures prediction-sweep throughput: scoring
// every region of the corpus across every per-cap head (68 regions × 4
// heads × 127 configs) from raw graphs to config picks — the
// train-once/predict-many serving shape.
func BenchmarkPredictSweep(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	cfg := DefaultModelConfig()
	cfg.Epochs = 1
	nCaps := len(d.Space.Caps())
	m := NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	m.Fit(PowerSamples(d, d.Regions, cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := PredictPower(d, m, d.Regions); len(got) != len(d.Regions) {
			b.Fatal("sweep dropped regions")
		}
	}
}

// BenchmarkPredictSweepQuantized is BenchmarkPredictSweep through the
// float32 quantized serving snapshot (weights converted once, outside the
// loop) — the measured speedup of the -quantize serving path. Picks are
// parity-gated bit-equal to the float64 sweep (TestQuantizedParity*).
func BenchmarkPredictSweepQuantized(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	cfg := DefaultModelConfig()
	cfg.Epochs = 1
	nCaps := len(d.Space.Caps())
	m := NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	m.Fit(PowerSamples(d, d.Regions, cfg))
	q := m.MustQuantize()
	PredictPowerQuantized(q, d.Regions) // warm the scratch arenas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := PredictPowerQuantized(q, d.Regions); len(got) != len(d.Regions) {
			b.Fatal("sweep dropped regions")
		}
	}
}
