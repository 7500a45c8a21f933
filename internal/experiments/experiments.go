// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated testbeds: the Table I search space,
// the Table II hyperparameters, the §I motivating example, the
// power-constrained tuning figures (2, 3), the unseen-power-constraint
// figures (4, 5), the EDP figures (6, 7), and the aggregate statistics
// quoted in the text. Each driver prints the same rows/series the paper
// reports and returns the numbers for programmatic checks.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"pnptuner/internal/autotune"
	"pnptuner/internal/bliss"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/metrics"
	"pnptuner/internal/opentuner"
	"pnptuner/internal/space"
	"pnptuner/internal/tensor"
)

// parallelFolds runs fn(i) for i in [0, n) across up to runtime.NumCPU()
// goroutines — one per LOOCV fold. Each fold trains and evaluates an
// independent model, so the only coordination is the join; callers merge
// per-fold outputs sequentially afterwards, keeping results deterministic
// and identical to the sequential order. Folds share the corpus's
// compile-once graph artifacts (kernels.Region.CompiledGraph), so no fold
// pays graph-compilation cost — each model only merges precompiled
// plans. While folds run concurrently the tensor pool that each RGCN
// layer forward splits its rows across is divided among them, so total
// goroutine pressure stays near NumCPU instead of folds×NumCPU (the split
// and every reduction are bit-identical at any width, so the cap never
// changes numerical results).
func parallelFolds(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	restore := tensor.SetWorkerCap((runtime.NumCPU() + workers - 1) / workers)
	defer restore()
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Options control experiment scale.
type Options struct {
	// Model overrides the default Table II model configuration.
	Model core.ModelConfig
	// MaxFolds truncates the LOOCV loop for quick runs (0 = all 30).
	MaxFolds int
	// Threshold is the normalized-speedup bar below which the dynamic
	// (counter-augmented) model re-predicts (§IV-B uses 0.95).
	Threshold float64
}

// DefaultOptions returns full-scale settings.
func DefaultOptions() Options {
	return Options{Model: core.DefaultModelConfig(), Threshold: 0.95}
}

// QuickOptions returns reduced settings for tests and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Model.Epochs = 8
	o.MaxFolds = 4
	return o
}

// Tuner labels, in the figures' legend order.
const (
	TunerDefault   = "Default"
	TunerPnPStatic = "PnP(Static)"
	TunerPnPDyn    = "PnP(Dynamic)"
	TunerPnPHybrid = "PnP(Hybrid)"
	TunerBLISS     = "BLISS"
	TunerOpenTuner = "OpenTuner"
)

// Tuners lists the legend order. PnP(Hybrid) is this reproduction's
// extension scenario: the GNN shortlists top-k configurations and a
// k-execution budget validates them — between the paper's zero-execution
// static scenario and the baselines' 20-execution searches.
var Tuners = []string{TunerDefault, TunerPnPStatic, TunerPnPDyn, TunerPnPHybrid, TunerBLISS, TunerOpenTuner}

// HybridK re-exports the engine's hybrid shortlist size — the k the
// figures' PnP(Hybrid) column spends per tuning task.
const HybridK = autotune.HybridK

// timeEntries assembles the scenario-1 strategy columns for one fold:
// zero-execution entries from the default config and the static/dynamic
// prediction maps, the hybrid shortlist entry, and the engine-driven
// search baselines.
func timeEntries(d *dataset.Dataset, static, dynamic map[string][]int, topk map[string][][]int) []autotune.Entry {
	capOf := func(t autotune.Task) int { return t.Obj.(autotune.TimeUnderCap).Cap }
	return []autotune.Entry{
		autotune.FixedEntry(TunerDefault, func(t autotune.Task) int { return d.Space.DefaultIndex() }),
		autotune.FixedEntry(TunerPnPStatic, func(t autotune.Task) int { return static[t.RegionID][capOf(t)] }),
		autotune.FixedEntry(TunerPnPDyn, func(t autotune.Task) int { return dynamic[t.RegionID][capOf(t)] }),
		autotune.HybridEntry(TunerPnPHybrid, func(t autotune.Task) []int { return topk[t.RegionID][capOf(t)] }),
		bliss.Entry(TunerBLISS),
		opentuner.Entry(TunerOpenTuner),
	}
}

// --- Table I and Table II ------------------------------------------------

// Table1 prints the search space (Table I).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "TABLE I: Search space for performance and power tuning")
	for _, m := range hw.Machines() {
		s := space.New(m)
		fmt.Fprintf(w, "  %-8s power limits %v W, threads %v, schedules %v, chunks %v\n",
			m.Name, m.PowerLimits, m.ThreadCounts, space.Schedules, space.Chunks)
		fmt.Fprintf(w, "  %-8s per-cap configs %d (126 grid + default), joint space %d\n",
			"", s.NumConfigs(), s.NumJoint())
	}
}

// Table2 prints the model hyperparameters (Table II).
func Table2(w io.Writer) {
	cfg := core.DefaultModelConfig()
	fmt.Fprintln(w, "TABLE II: Deep learning model hyperparameters")
	fmt.Fprintf(w, "  Layers          RGCN (%d), FCNN (%d)\n", cfg.NumRGCN, cfg.NumDense)
	fmt.Fprintf(w, "  Activations     LeakyReLU (slope %g), ReLU\n", cfg.LeakySlope)
	fmt.Fprintf(w, "  Optimizer       AdamW (amsgrad=%v) / Adam\n", cfg.AMSGrad)
	fmt.Fprintf(w, "  Learning rate   %g\n", cfg.LR)
	fmt.Fprintf(w, "  Batch size      %d\n", cfg.BatchSize)
	fmt.Fprintf(w, "  Loss            Cross entropy\n")
	fmt.Fprintf(w, "  Embedding/width %d / %d\n", cfg.EmbedDim, cfg.Hidden)
}

// --- §I motivating example ------------------------------------------------

// MotivationResult holds the §I LULESH numbers.
type MotivationResult struct {
	// SpeedupAtCap is the oracle speedup over the default config at each
	// Haswell cap for ApplyAccelerationBoundaryConditionsForNodes.
	SpeedupAtCap []float64
	// TunerNorm[tuner][capIdx] is the fraction of the oracle speedup each
	// model-free engine entry (Default, BLISS, OpenTuner) reaches on the
	// motivating kernel.
	TunerNorm map[string][]float64
	// BestEnergyGreenup and BestEnergySpeedup compare the most
	// energy-efficient point against default at TDP.
	BestEnergyGreenup float64
	BestEnergySpeedup float64
	BestEnergyCapW    float64
	// EDP-optimal point vs default at TDP.
	EDPSpeedup float64
	EDPGreenup float64
	EDPCapW    float64
}

// Motivation reproduces the §I motivating example on the Haswell system.
func Motivation(w io.Writer) (*MotivationResult, error) {
	d, err := dataset.Build(hw.Haswell())
	if err != nil {
		return nil, err
	}
	var rd *dataset.RegionData
	for _, r := range d.Regions {
		if r.Region.App == "LULESH" && r.Region.Info.Func == "ApplyAccelerationBoundaryConditionsForNodes" {
			rd = r
			break
		}
	}
	if rd == nil {
		return nil, fmt.Errorf("experiments: LULESH boundary kernel missing")
	}
	res := &MotivationResult{TunerNorm: map[string][]float64{}}
	fmt.Fprintln(w, "Motivating example (§I): LULESH ApplyAccelerationBoundaryConditionsForNodes, Haswell")
	for ci, capW := range d.Space.Caps() {
		def := rd.DefaultResult(ci, d.Space).TimeSec
		sp := metrics.Speedup(def, rd.BestTime(ci))
		res.SpeedupAtCap = append(res.SpeedupAtCap, sp)
		fmt.Fprintf(w, "  exhaustive best speedup vs default at %3.0fW: %.2fx\n", capW, sp)
	}
	// What the model-free strategies recover of those gains: one engine
	// session per (entry, cap) on the motivating kernel.
	entries := []autotune.Entry{
		autotune.FixedEntry(TunerDefault, func(t autotune.Task) int { return d.Space.DefaultIndex() }),
		bliss.Entry(TunerBLISS),
		opentuner.Entry(TunerOpenTuner),
	}
	for _, en := range entries {
		norms := make([]float64, len(d.Space.Caps()))
		for ci := range d.Space.Caps() {
			task := autotune.Task{
				Problem: autotune.Problem{
					Obj:   autotune.TimeUnderCap{Cap: ci},
					Space: d.Space,
					Seed:  rd.Region.Seed,
				},
				RegionID: rd.Region.ID,
			}
			pick := autotune.RunEntry(en, rd, task).Best
			def := rd.DefaultResult(ci, d.Space).TimeSec
			sp := metrics.Speedup(def, rd.Results[ci][pick].TimeSec)
			norms[ci] = metrics.Normalize(sp, metrics.Speedup(def, rd.BestTime(ci)))
		}
		res.TunerNorm[en.Name] = norms
		fmt.Fprintf(w, "  %-10s fraction of oracle per cap:", en.Name)
		for _, v := range norms {
			fmt.Fprintf(w, " %5.2f", v)
		}
		fmt.Fprintln(w)
	}
	// Most energy-efficient point across the whole joint space.
	tdpIdx := len(d.Space.Caps()) - 1
	defTDP := rd.DefaultResult(tdpIdx, d.Space)
	bestE := -1.0
	var bestECap int
	var bestET float64
	for ci := range d.Space.Caps() {
		for ki := range d.Space.Configs {
			r := rd.Results[ci][ki]
			if bestE < 0 || r.EnergyJ() < bestE {
				bestE = r.EnergyJ()
				bestECap = ci
				bestET = r.TimeSec
			}
		}
	}
	res.BestEnergyGreenup = metrics.Greenup(defTDP.EnergyJ(), bestE)
	res.BestEnergySpeedup = metrics.Speedup(defTDP.TimeSec, bestET)
	res.BestEnergyCapW = d.Space.Caps()[bestECap]
	fmt.Fprintf(w, "  most energy-efficient point: %gW cap, greenup %.2fx, speedup %.2fx vs default@TDP\n",
		res.BestEnergyCapW, res.BestEnergyGreenup, res.BestEnergySpeedup)

	ci, ki := d.Space.SplitJoint(rd.BestEDPJoint)
	edpBest := rd.Results[ci][ki]
	res.EDPSpeedup = metrics.Speedup(defTDP.TimeSec, edpBest.TimeSec)
	res.EDPGreenup = metrics.Greenup(defTDP.EnergyJ(), edpBest.EnergyJ())
	res.EDPCapW = d.Space.Caps()[ci]
	fmt.Fprintf(w, "  EDP-optimal point: %gW cap, speedup %.2fx, greenup %.2fx vs default@TDP\n",
		res.EDPCapW, res.EDPSpeedup, res.EDPGreenup)
	return res, nil
}

// --- Figures 2 and 3: power-constrained tuning ---------------------------

// PowerFigure is the data behind Fig. 2 (Haswell) or Fig. 3 (Skylake).
type PowerFigure struct {
	Machine string
	Caps    []float64
	Apps    []string
	// Norm[tuner][capIdx][appIdx]: per-app geomean normalized speedup
	// (speedup over default divided by oracle speedup, as in the figures).
	Norm map[string][][]float64
	// RegionNorm[tuner]: per-(region,cap) normalized values (flat), for
	// the §IV-B aggregate statistics.
	RegionNorm map[string][]float64
	// Speedup[tuner][capIdx]: geomean speedup over default across regions.
	Speedup map[string][]float64
	// TransferSpeedup is the full/frozen training-time ratio (Fig. 3 only).
	TransferSpeedup float64
}

// Frac95 returns the fraction of (region, cap) cases within 5% of oracle.
func (pf *PowerFigure) Frac95(tuner string) float64 {
	return metrics.FractionAtLeast(pf.RegionNorm[tuner], 0.95)
}

// BeatsFraction returns how often tuner a strictly beats tuner b.
func (pf *PowerFigure) BeatsFraction(a, b string) float64 {
	return metrics.FractionGreater(pf.RegionNorm[a], pf.RegionNorm[b])
}

// Fig2 reproduces the Haswell power-constrained tuning figure.
func Fig2(w io.Writer, opts Options) (*PowerFigure, error) {
	return powerFigure(w, hw.Haswell(), nil, opts, "Fig 2: Power Constrained Tuning (Haswell)")
}

// Fig3 reproduces the Skylake power-constrained tuning figure, training
// via Haswell→Skylake transfer learning as §IV-B describes.
func Fig3(w io.Writer, opts Options) (*PowerFigure, error) {
	// Source encoder: trained once on the full Haswell corpus.
	dH, err := dataset.Build(hw.Haswell())
	if err != nil {
		return nil, err
	}
	srcFold := dataset.Fold{App: "", Train: dH.Regions}
	src := core.TrainPower(dH, srcFold, opts.Model)
	return powerFigure(w, hw.Skylake(), src, opts, "Fig 3: Power Constrained Tuning (Skylake, transfer-trained)")
}

func powerFigure(w io.Writer, m *hw.Machine, transferSrc *core.PowerResult, opts Options, title string) (*PowerFigure, error) {
	d, err := dataset.Build(m)
	if err != nil {
		return nil, err
	}
	folds := d.LOOCVFolds()
	if opts.MaxFolds > 0 && opts.MaxFolds < len(folds) {
		folds = folds[:opts.MaxFolds]
	}

	pf := &PowerFigure{
		Machine:    m.Name,
		Caps:       d.Space.Caps(),
		Norm:       map[string][][]float64{},
		RegionNorm: map[string][]float64{},
		Speedup:    map[string][]float64{},
	}
	// speedups[tuner][capIdx] collects per-region speedups over default.
	type cell struct{ norm, speedup []float64 }
	perApp := map[string]map[string][]cell{} // tuner → app → per-cap cells
	for _, tn := range Tuners {
		perApp[tn] = map[string][]cell{}
	}
	addRegion := func(tuner, app string, ci int, norm, speedup float64) {
		cells := perApp[tuner][app]
		if cells == nil {
			cells = make([]cell, len(pf.Caps))
		}
		cells[ci].norm = append(cells[ci].norm, norm)
		cells[ci].speedup = append(cells[ci].speedup, speedup)
		perApp[tuner][app] = cells
		pf.RegionNorm[tuner] = append(pf.RegionNorm[tuner], norm)
	}

	// Train every fold in parallel (each fold is an independent model),
	// then merge in fold order so the output is deterministic. Only the
	// prediction maps survive the fold — the trained models would
	// otherwise all stay live until the merge.
	type foldOut struct {
		static           map[string][]int
		dynamic          map[string][]int
		topk             map[string][][]int
		fullDur, xferDur float64
		err              error
	}
	outs := make([]foldOut, len(folds))
	parallelFolds(len(folds), func(fi int) {
		fold := folds[fi]
		o := &outs[fi]
		var res *core.PowerResult
		if transferSrc != nil {
			// Measure the transfer-vs-full training speedup on this fold.
			full := core.TrainPower(d, fold, opts.Model)
			o.fullDur = full.Stats.Duration.Seconds()
			var err error
			res, err = core.TransferPower(transferSrc.Model, d, fold, opts.Model)
			if err != nil {
				o.err = err
				return
			}
			o.xferDur = res.Stats.Duration.Seconds()
		} else {
			res = core.TrainPower(d, fold, opts.Model)
		}
		o.static = res.Pred
		o.dynamic = core.RefineWithCounters(d, fold, res.Pred, opts.Threshold, opts.Model)
		o.topk = core.TopKPower(d, res.Model, fold.Val, HybridK)
	})

	var fullDur, xferDur float64
	for fi, fold := range folds {
		o := outs[fi]
		if o.err != nil {
			return nil, o.err
		}
		fullDur += o.fullDur
		xferDur += o.xferDur

		// Every tuner column is one engine entry: the predictions become
		// zero-execution Fixed strategies, the hybrid shortlist gets its
		// k-execution refinement budget, and the search baselines run
		// their full noisy-replay sessions.
		entries := timeEntries(d, o.static, o.dynamic, o.topk)
		for _, rd := range fold.Val {
			for ci := range pf.Caps {
				def := rd.DefaultResult(ci, d.Space).TimeSec
				best := rd.BestTime(ci)
				oracleSp := metrics.Speedup(def, best)
				task := autotune.Task{
					Problem: autotune.Problem{
						Obj:   autotune.TimeUnderCap{Cap: ci},
						Space: d.Space,
						Seed:  rd.Region.Seed,
					},
					RegionID: rd.Region.ID,
				}
				for _, en := range entries {
					pick := autotune.RunEntry(en, rd, task).Best
					sp := metrics.Speedup(def, rd.Results[ci][pick].TimeSec)
					addRegion(en.Name, rd.Region.App, ci, metrics.Normalize(sp, oracleSp), sp)
				}
			}
		}
	}
	if xferDur > 0 {
		pf.TransferSpeedup = fullDur / xferDur
	}

	// Collapse per-app geomeans in figure order.
	for _, app := range kernels.AppNames() {
		if len(perApp[TunerDefault][app]) == 0 {
			continue
		}
		pf.Apps = append(pf.Apps, app)
	}
	for _, tn := range Tuners {
		grid := make([][]float64, len(pf.Caps))
		agg := make([]float64, len(pf.Caps))
		for ci := range pf.Caps {
			grid[ci] = make([]float64, len(pf.Apps))
			var all []float64
			for ai, app := range pf.Apps {
				c := perApp[tn][app][ci]
				grid[ci][ai] = metrics.GeoMean(c.norm)
				all = append(all, c.speedup...)
			}
			agg[ci] = metrics.GeoMean(all)
		}
		pf.Norm[tn] = grid
		pf.Speedup[tn] = agg
	}

	printPowerFigure(w, title, pf)
	return pf, nil
}

// appOrder returns the corpus apps present in the figure, in figure order.
func appOrder(present map[string]bool) []string {
	var out []string
	for _, app := range kernels.AppNames() {
		if present[app] {
			out = append(out, app)
		}
	}
	return out
}

func printPowerFigure(w io.Writer, title string, pf *PowerFigure) {
	fmt.Fprintln(w, title)
	for ci, capW := range pf.Caps {
		fmt.Fprintf(w, "  -- %gW: normalized speedups (oracle = 1.00) --\n", capW)
		fmt.Fprintf(w, "  %-14s", "app")
		for _, tn := range Tuners {
			fmt.Fprintf(w, " %12s", tn)
		}
		fmt.Fprintln(w)
		for ai, app := range pf.Apps {
			fmt.Fprintf(w, "  %-14s", app)
			for _, tn := range Tuners {
				fmt.Fprintf(w, " %12.3f", pf.Norm[tn][ci][ai])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  geomean speedups over default per cap:\n")
	for _, tn := range Tuners[1:] {
		fmt.Fprintf(w, "    %-13s", tn)
		for ci := range pf.Caps {
			fmt.Fprintf(w, " %6.3fx", pf.Speedup[tn][ci])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  >=0.95 oracle: PnP(Static) %.0f%%, PnP(Dynamic) %.0f%%, PnP(Hybrid) %.0f%%, BLISS %.0f%%, OpenTuner %.0f%%\n",
		100*pf.Frac95(TunerPnPStatic), 100*pf.Frac95(TunerPnPDyn), 100*pf.Frac95(TunerPnPHybrid),
		100*pf.Frac95(TunerBLISS), 100*pf.Frac95(TunerOpenTuner))
	fmt.Fprintf(w, "  PnP beats BLISS in %.0f%% and OpenTuner in %.0f%% of cases\n",
		100*pf.BeatsFraction(TunerPnPStatic, TunerBLISS),
		100*pf.BeatsFraction(TunerPnPStatic, TunerOpenTuner))
	if pf.TransferSpeedup > 0 {
		fmt.Fprintf(w, "  transfer learning: %.2fx faster training than full retraining\n", pf.TransferSpeedup)
	}
}
