// Package bench holds the benchmark harness: one testing.B benchmark per
// table and figure of the paper (regenerating its data at reduced scale
// per iteration), plus ablation benchmarks for the design choices called
// out in DESIGN.md and micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Full-scale figure regeneration lives in cmd/experiments; these
// benchmarks exercise the same code paths end to end.
package bench

import (
	"io"
	"testing"

	"pnptuner/internal/autotune"
	"pnptuner/internal/bliss"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/experiments"
	"pnptuner/internal/frontend"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/omp"
	"pnptuner/internal/opentuner"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/space"
	"pnptuner/internal/tensor"
)

// benchOpts returns reduced-scale options so one benchmark iteration stays
// in the seconds range.
func benchOpts() experiments.Options {
	o := experiments.QuickOptions()
	o.MaxFolds = 2
	return o
}

// --- Tables ---------------------------------------------------------------

// BenchmarkTable1SearchSpace regenerates Table I: constructing and fully
// enumerating the 508-point search space for both machines.
func BenchmarkTable1SearchSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range hw.Machines() {
			s := space.New(m)
			total := 0
			for j := 0; j < s.NumJoint(); j++ {
				_, cfg := s.At(j)
				total += cfg.Threads
			}
			if s.NumJoint() != 508 {
				b.Fatal("search space size drifted")
			}
		}
	}
}

// BenchmarkTable2ModelConstruction builds the Table II model (4 RGCN +
// 3 FC layers) from scratch.
func BenchmarkTable2ModelConstruction(b *testing.B) {
	c := kernels.MustCompile()
	cfg := core.DefaultModelConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewModel(cfg, c.Vocab.Size(), 4, 127)
		if len(m.Heads) != 4 {
			b.Fatal("model shape wrong")
		}
	}
}

// --- §I motivating example -------------------------------------------------

// BenchmarkMotivationLULESH regenerates the §I numbers (exhaustive search
// over the LULESH boundary kernel at every Haswell cap).
func BenchmarkMotivationLULESH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Motivation(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures ----------------------------------------------------------------

// BenchmarkFig2HaswellPowerTuning regenerates Fig. 2 (power-constrained
// tuning, Haswell) at reduced fold count.
func BenchmarkFig2HaswellPowerTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3SkylakePowerTuning regenerates Fig. 3 (Skylake, with the
// Haswell→Skylake transfer-learning path).
func BenchmarkFig3SkylakePowerTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4UnseenCapSkylake regenerates Fig. 4 (unseen power
// constraints, Skylake).
func BenchmarkFig4UnseenCapSkylake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5UnseenCapHaswell regenerates Fig. 5 (unseen power
// constraints, Haswell).
func BenchmarkFig5UnseenCapHaswell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6EDP regenerates Fig. 6 (EDP improvement, both systems).
func BenchmarkFig6EDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range hw.Machines() {
			if _, err := experiments.Fig6And7(io.Discard, m, benchOpts()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig7SpeedupGreenup regenerates the Fig. 7 series (speedups and
// greenups of EDP-tuned configurations); it shares the Fig. 6 pipeline,
// benchmarked here on the Haswell system alone.
func BenchmarkFig7SpeedupGreenup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ef, err := experiments.Fig6And7(io.Discard, hw.Haswell(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(ef.Speedup[experiments.TunerPnPStatic]) == 0 {
			b.Fatal("no Fig 7 series")
		}
	}
}

// --- Ablations (DESIGN.md design choices) -----------------------------------

// BenchmarkAblationStaticVsDynamicFeatures contrasts training with static
// features only against the counter-augmented variant (§IV-B).
func BenchmarkAblationStaticVsDynamicFeatures(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[0]
	for _, variant := range []struct {
		name     string
		counters bool
	}{{"static", false}, {"dynamic", true}} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := core.DefaultModelConfig()
			cfg.Epochs = 6
			cfg.UseCounters = variant.counters
			for i := 0; i < b.N; i++ {
				core.TrainPower(d, fold, cfg)
			}
		})
	}
}

// BenchmarkAblationTransferVsFull contrasts full Skylake training against
// frozen-encoder transfer (the 4.18× claim of §IV-B).
func BenchmarkAblationTransferVsFull(b *testing.B) {
	dH := dataset.MustBuild(hw.Haswell())
	dS := dataset.MustBuild(hw.Skylake())
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 6
	src := core.TrainPower(dH, dataset.Fold{Train: dH.Regions}, cfg)
	fold := dS.LOOCVFolds()[0]
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.TrainPower(dS, fold, cfg)
		}
	})
	b.Run("transfer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.TransferPower(src.Model, dS, fold, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSoftVsHardLabels contrasts hard argmax-label training
// (the paper's stated recipe) against the soft near-optimal-set labels
// this reproduction defaults to (see DESIGN.md §Deviations).
func BenchmarkAblationSoftVsHardLabels(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[0]
	for _, variant := range []struct {
		name string
		soft bool
	}{{"hard", false}, {"soft", true}} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := core.DefaultModelConfig()
			cfg.Epochs = 6
			cfg.SoftLabels = variant.soft
			for i := 0; i < b.N; i++ {
				core.TrainPower(d, fold, cfg)
			}
		})
	}
}

// BenchmarkAblationRGCNDepth varies the number of RGCN layers around the
// Table II value (4), the key architecture choice of §III-D1.
func BenchmarkAblationRGCNDepth(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[0]
	for _, depth := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "rgcn1", 2: "rgcn2", 4: "rgcn4"}[depth], func(b *testing.B) {
			cfg := core.DefaultModelConfig()
			cfg.Epochs = 6
			cfg.NumRGCN = depth
			for i := 0; i < b.N; i++ {
				core.TrainPower(d, fold, cfg)
			}
		})
	}
}

// BenchmarkAblationHybridTopK measures the hybrid extension (top-k
// candidates validated by measurement) against pure static prediction.
func BenchmarkAblationHybridTopK(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[0]
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 6
	res := core.TrainPower(d, fold, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.HybridPower(d, res, fold, 3)
	}
}

// BenchmarkAblationSchedulers contrasts the three schedule simulators on
// an imbalanced region (the choice the omp package's chunk-level
// simulation exists for).
func BenchmarkAblationSchedulers(b *testing.B) {
	c := kernels.MustCompile()
	var region *kernels.Region
	for _, r := range c.Regions {
		if r.App == "Quicksilver" {
			region = r
			break
		}
	}
	ex := omp.NewExecutor(hw.Haswell())
	for _, sched := range []omp.Schedule{omp.ScheduleStatic, omp.ScheduleDynamic, omp.ScheduleGuided} {
		b.Run(sched.String(), func(b *testing.B) {
			cfg := omp.Config{Threads: 16, Sched: sched, Chunk: 16}
			for i := 0; i < b.N; i++ {
				ex.Run(&region.Info.Model, region.Seed, cfg, 60)
			}
		})
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------

// BenchmarkRegionExecution measures one simulated region execution.
func BenchmarkRegionExecution(b *testing.B) {
	c := kernels.MustCompile()
	r := c.Regions[0]
	ex := omp.NewExecutor(hw.Skylake())
	cfg := omp.Config{Threads: 32, Sched: omp.ScheduleDynamic, Chunk: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Run(&r.Info.Model, r.Seed, cfg, 120)
	}
}

// BenchmarkCorpusCompile measures frontend compilation + graph
// construction of the whole 30-application corpus.
func BenchmarkCorpusCompile(b *testing.B) {
	apps := kernels.Apps()
	for i := 0; i < b.N; i++ {
		for _, app := range apps {
			if _, _, err := frontend.Compile(app.Name, app.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRGCNForward measures one GNN encoder pass over a mid-sized
// region graph.
func BenchmarkRGCNForward(b *testing.B) {
	c := kernels.MustCompile()
	var g *programl.Graph
	for _, r := range c.Regions {
		if r.App == "gemm" {
			g = r.Graph
		}
	}
	rng := tensor.NewRNG(1)
	emb := rgcn.NewEmbedding("e", c.Vocab.Size(), 16, rng)
	layer := rgcn.NewLayer("l", emb.OutDim(), 16, rng)
	adj := rgcn.BuildAdjacency(g)
	layer.SetGraph(adj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := emb.Forward(g)
		layer.Forward(h)
	}
}

// BenchmarkBatchedForward contrasts the sequential per-graph encoder path
// (the seed's hot loop: one Forward per region) with the batched
// block-diagonal engine, which encodes the whole corpus in one pass. The
// batched path fans the per-relation scatter-adds and matrix multiplies
// out across the worker pool, so the gap widens with GOMAXPROCS; both
// paths produce the same pooled vectors within 1e-9 (see
// core.TestEncoderBatchMatchesPerGraph).
func BenchmarkBatchedForward(b *testing.B) {
	c := kernels.MustCompile()
	cfg := core.DefaultModelConfig()
	m := core.NewModel(cfg, c.Vocab.Size(), 1, 127)
	regions := c.Regions
	m.Batch(regions) // warm the adjacency cache for both paths
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range regions {
				m.Enc.Forward(r, m.Adjacency(r))
			}
		}
	})
	b.Run("batched-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Enc.ForwardBatch(m.Batch(regions))
		}
	})
}

// BenchmarkFitEpoch measures training epoch throughput on the full
// scenario-1 corpus: one Fit call with a single epoch — minibatch
// assembly, block-diagonal encoder forward/backward, head passes, and the
// optimizer step for every minibatch of the 68-region corpus. This is the
// headline training hot path the compile-once pipeline exists for; compare
// against BENCH_3.json with benchstat.
func BenchmarkFitEpoch(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 1
	nCaps := len(d.Space.Caps())
	m := core.NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	samples := core.PowerSamples(d, d.Regions, cfg)
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
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 1
	nCaps := len(d.Space.Caps())
	m := core.NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	m.Fit(core.PowerSamples(d, d.Regions, cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.PredictPower(d, m, d.Regions); len(got) != len(d.Regions) {
			b.Fatal("sweep dropped regions")
		}
	}
}

// BenchmarkPredictSweepQuantized is BenchmarkPredictSweep through the
// float32 quantized serving snapshot (weights converted once, outside the
// loop) — the measured speedup of the -quantize serving path. Picks are
// parity-gated bit-equal to the float64 sweep (core.TestQuantizedParity*).
func BenchmarkPredictSweepQuantized(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 1
	nCaps := len(d.Space.Caps())
	m := core.NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	m.Fit(core.PowerSamples(d, d.Regions, cfg))
	q := m.MustQuantize()
	core.PredictPowerQuantized(q, d.Regions) // warm the scratch arenas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.PredictPowerQuantized(q, d.Regions); len(got) != len(d.Regions) {
			b.Fatal("sweep dropped regions")
		}
	}
}

// BenchmarkBaselineTuners measures one engine-driven tuning run of each
// baseline strategy.
func BenchmarkBaselineTuners(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	rd := d.Regions[0]
	task := func(seed uint64) autotune.Task {
		return autotune.Task{
			Problem:  autotune.Problem{Obj: autotune.TimeUnderCap{Cap: 0}, Space: d.Space, Seed: seed},
			RegionID: rd.Region.ID,
		}
	}
	b.Run("bliss", func(b *testing.B) {
		entry := bliss.Entry("BLISS")
		for i := 0; i < b.N; i++ {
			autotune.RunEntry(entry, rd, task(uint64(i)))
		}
	})
	b.Run("opentuner", func(b *testing.B) {
		entry := opentuner.Entry("OpenTuner")
		for i := 0; i < b.N; i++ {
			autotune.RunEntry(entry, rd, task(uint64(i)))
		}
	})
}

// BenchmarkEngineSession measures one full autotune engine session per
// strategy on a fixed tuning task (Haswell region 0, lowest cap): the
// zero-execution GNN pick, the hybrid shortlist refinement, and the two
// search baselines under their paper budgets. This is the perf
// trajectory point the bench-smoke CI job tracks (BENCH_4.json).
func BenchmarkEngineSession(b *testing.B) {
	d := dataset.MustBuild(hw.Haswell())
	rd := d.Regions[0]
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 1
	nCaps := len(d.Space.Caps())
	m := core.NewModel(cfg, d.Corpus.Vocab.Size(), nCaps, d.Space.NumConfigs())
	m.Fit(core.PowerSamples(d, d.Regions, cfg))
	topk := core.TopKPower(d, m, d.Regions[:1], experiments.HybridK)

	task := func(seed uint64) autotune.Task {
		return autotune.Task{
			Problem:  autotune.Problem{Obj: autotune.TimeUnderCap{Cap: 0}, Space: d.Space, Seed: seed},
			RegionID: rd.Region.ID,
		}
	}
	entries := map[string]autotune.Entry{
		"gnn": autotune.FixedEntry("gnn", func(t autotune.Task) int {
			return topk[t.RegionID][0][0]
		}),
		"hybrid": autotune.HybridEntry("hybrid", func(t autotune.Task) []int {
			return topk[t.RegionID][0]
		}),
		"bliss":     bliss.Entry("BLISS"),
		"opentuner": opentuner.Entry("OpenTuner"),
	}
	for _, name := range []string{"gnn", "hybrid", "bliss", "opentuner"} {
		entry := entries[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				autotune.RunEntry(entry, rd, task(uint64(i)))
			}
		})
	}
}
