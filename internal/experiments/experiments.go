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

// folds builds m's dataset and its LOOCV folds, truncated to MaxFolds.
func (o Options) folds(m *hw.Machine) (*dataset.Dataset, []dataset.Fold, error) {
	d, err := dataset.Build(m)
	if err != nil {
		return nil, nil, err
	}
	folds := d.LOOCVFolds()
	if o.MaxFolds > 0 && o.MaxFolds < len(folds) {
		folds = folds[:o.MaxFolds]
	}
	return d, folds, nil
}

// foldJob is one PnP model a figure trains: the LOOCV fold, the targets
// the model learns, and the cap feature its held-out regions are scored
// at.
type foldJob struct {
	fold    dataset.Fold
	targets []core.Target
	capNorm float64
}

// foldJobs pairs every fold with the same targets.
func foldJobs(folds []dataset.Fold, targets []core.Target) []foldJob {
	jobs := make([]foldJob, len(folds))
	for i, f := range folds {
		jobs[i] = foldJob{fold: f, targets: targets}
	}
	return jobs
}

// foldOut is what one trained job leaves for scoring, per held-out region
// and head: static picks, refined picks and hybrid shortlists, plus the
// full and transfer training seconds.
type foldOut struct {
	static, dynamic  map[string][]int
	topk             map[string][][]int
	fullDur, xferDur float64
}

// runFolds trains one static model per job across the fold pool —
// heads-only on src's frozen encoder when src is non-nil, timing a full
// retrain beside it — and with refine adds the PnP(Dynamic) and
// PnP(Hybrid) columns. Only picks outlive a job, and outputs come back in
// job order, so the figures merge deterministically.
func runFolds(d *dataset.Dataset, jobs []foldJob, opts Options, src *core.Model, refine bool) ([]foldOut, error) {
	outs := make([]foldOut, len(jobs))
	errs := make([]error, len(jobs))
	parallelFolds(len(jobs), func(i int) {
		j, o := jobs[i], &outs[i]
		if src != nil {
			_, full, _ := core.Train(d, j.fold.Train, j.targets, opts.Model, nil) // from scratch: no error
			o.fullDur = full.Duration.Seconds()
		}
		m, stats, err := core.Train(d, j.fold.Train, j.targets, opts.Model, src)
		if err != nil {
			errs[i] = err
			return
		}
		if src != nil {
			o.xferDur = stats.Duration.Seconds()
		}
		o.static = m.Picks(j.fold.Val, j.capNorm)
		if refine {
			o.dynamic = core.Refine(d, j.fold, j.targets, o.static, opts.Threshold, opts.Model)
			o.topk = m.TopK(j.fold.Val, j.capNorm, HybridK)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
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

// pnpEntries assembles one fold's tuner columns as engine entries: the
// default candidate def and the static and refined picks as
// zero-execution entries, the hybrid shortlist under its k-execution
// budget, and the search baselines' full noisy-replay sessions. Picks
// are read at the head that scores the task's objective.
func pnpEntries(def int, o foldOut) []autotune.Entry {
	head := func(t autotune.Task) int { return core.HeadOf(t.Obj) }
	return []autotune.Entry{
		autotune.FixedEntry(TunerDefault, func(autotune.Task) int { return def }),
		autotune.FixedEntry(TunerPnPStatic, func(t autotune.Task) int { return o.static[t.RegionID][head(t)] }),
		autotune.FixedEntry(TunerPnPDyn, func(t autotune.Task) int { return o.dynamic[t.RegionID][head(t)] }),
		autotune.HybridEntry(TunerPnPHybrid, func(t autotune.Task) []int { return o.topk[t.RegionID][head(t)] }),
		bliss.Entry(TunerBLISS),
		opentuner.Entry(TunerOpenTuner),
	}
}

// scoreFolds runs every tuner column (pnpEntries, with def as the
// default candidate) on every held-out region of every fold, one engine
// session per target, and records each session's pick with its target's
// head.
func scoreFolds(d *dataset.Dataset, folds []dataset.Fold, outs []foldOut, targets []core.Target, def int,
	record func(tuner string, rd *dataset.RegionData, head, pick int)) {

	for fi, fold := range folds {
		entries := pnpEntries(def, outs[fi])
		for _, rd := range fold.Val {
			for _, t := range targets {
				task := autotune.Task{
					Problem:  autotune.Problem{Obj: t.Obj, Space: d.Space, Seed: rd.Region.Seed},
					RegionID: rd.Region.ID,
				}
				for _, en := range entries {
					record(en.Name, rd, t.Head, autotune.RunEntry(en, rd, task).Best)
				}
			}
		}
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
	src := core.TrainPower(dH, dH.FullFold(), opts.Model).Model
	return powerFigure(w, hw.Skylake(), src, opts, "Fig 3: Power Constrained Tuning (Skylake, transfer-trained)")
}

// powerFigure scores every tuner per (region, cap) over the LOOCV folds,
// training the PnP models on src's encoder when src is non-nil.
func powerFigure(w io.Writer, m *hw.Machine, src *core.Model, opts Options, title string) (*PowerFigure, error) {
	d, folds, err := opts.folds(m)
	if err != nil {
		return nil, err
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

	targets := core.PowerTargets(d.Space)
	outs, err := runFolds(d, foldJobs(folds, targets), opts, src, true)
	if err != nil {
		return nil, err
	}
	scoreFolds(d, folds, outs, targets, d.Space.DefaultIndex(), func(tuner string, rd *dataset.RegionData, ci, pick int) {
		def := rd.DefaultResult(ci, d.Space).TimeSec
		sp := metrics.Speedup(def, rd.Results[ci][pick].TimeSec)
		norm := metrics.Normalize(sp, metrics.Speedup(def, rd.BestTime(ci)))
		cells := perApp[tuner][rd.Region.App]
		if cells == nil {
			cells = make([]cell, len(pf.Caps))
			perApp[tuner][rd.Region.App] = cells
		}
		cells[ci].norm = append(cells[ci].norm, norm)
		cells[ci].speedup = append(cells[ci].speedup, sp)
		pf.RegionNorm[tuner] = append(pf.RegionNorm[tuner], norm)
	})
	var fullDur, xferDur float64
	for _, o := range outs {
		fullDur += o.fullDur
		xferDur += o.xferDur
	}
	if xferDur > 0 {
		pf.TransferSpeedup = fullDur / xferDur
	}

	// Collapse per-app geomeans in figure order.
	pf.Apps = appOrder(perApp[TunerDefault])
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

// appOrder returns the corpus apps a figure holds data for (the keys of
// perApp), in figure order.
func appOrder[V any](perApp map[string]V) []string {
	var out []string
	for _, app := range kernels.AppNames() {
		if _, ok := perApp[app]; ok {
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
