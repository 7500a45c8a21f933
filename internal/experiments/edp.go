package experiments

import (
	"fmt"
	"io"
	"slices"

	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/metrics"
)

// UnseenCapFigure is the data behind Fig. 4 (Skylake) or Fig. 5 (Haswell):
// tuning at power constraints excluded from training.
type UnseenCapFigure struct {
	Machine string
	// TargetCaps are the held-out power limits (lowest and highest).
	TargetCaps []float64
	Apps       []string
	// DefaultNorm/PnPNorm[t][appIdx]: normalized speedups at target cap t.
	DefaultNorm [][]float64
	PnPNorm     [][]float64
	// RegionNorm flattens PnP per-(region, target-cap) values.
	RegionNorm []float64
	// Speedup[t] is the PnP geomean speedup over default; OracleSpeedup[t]
	// the exhaustive-search geomean, as §IV-B quotes.
	Speedup       []float64
	OracleSpeedup []float64
}

// Fig4 evaluates unseen power constraints on Skylake (150W and 75W).
func Fig4(w io.Writer, opts Options) (*UnseenCapFigure, error) {
	return unseenCapFigure(w, hw.Skylake(), opts, "Fig 4: Unseen power constraints (Skylake)")
}

// Fig5 evaluates unseen power constraints on Haswell (85W and 40W).
func Fig5(w io.Writer, opts Options) (*UnseenCapFigure, error) {
	return unseenCapFigure(w, hw.Haswell(), opts, "Fig 5: Unseen power constraints (Haswell)")
}

func unseenCapFigure(w io.Writer, m *hw.Machine, opts Options, title string) (*UnseenCapFigure, error) {
	d, folds, err := opts.folds(m)
	if err != nil {
		return nil, err
	}
	// The paper tests the highest and lowest caps.
	targets := []int{len(d.Space.Caps()) - 1, 0}

	uf := &UnseenCapFigure{Machine: m.Name}
	type appAgg struct{ def, pnp []float64 }
	perApp := make([]map[string]*appAgg, len(targets))
	speedups := make([][]float64, len(targets))
	oracles := make([][]float64, len(targets))
	for ti, t := range targets {
		uf.TargetCaps = append(uf.TargetCaps, d.Space.Caps()[t])
		perApp[ti] = map[string]*appAgg{}
	}

	// One cap-conditioned model per (fold, target cap): counters and the
	// normalized cap join the features, one head learns every other cap,
	// and the held-out regions are scored at the excluded cap.
	caps := core.CapTargets(d)
	var jobs []foldJob
	for _, fold := range folds {
		for _, capIdx := range targets {
			seen := slices.Delete(slices.Clone(caps), capIdx, capIdx+1)
			jobs = append(jobs, foldJob{fold: fold, targets: seen, capNorm: caps[capIdx].CapNorm})
		}
	}
	capOpts := opts
	capOpts.Model.UseCounters, capOpts.Model.UseCapFeature = true, true
	outs, err := runFolds(d, jobs, capOpts, nil, false)
	if err != nil {
		return nil, err
	}

	for fi, fold := range folds {
		for ti, capIdx := range targets {
			pred := outs[fi*len(targets)+ti].static
			for _, rd := range fold.Val {
				def := rd.DefaultResult(capIdx, d.Space).TimeSec
				best := rd.BestTime(capIdx)
				oracleSp := metrics.Speedup(def, best)
				pick := pred[rd.Region.ID][0]
				sp := metrics.Speedup(def, rd.Results[capIdx][pick].TimeSec)

				agg := perApp[ti][rd.Region.App]
				if agg == nil {
					agg = &appAgg{}
					perApp[ti][rd.Region.App] = agg
				}
				agg.def = append(agg.def, metrics.Normalize(1, oracleSp))
				norm := metrics.Normalize(sp, oracleSp)
				agg.pnp = append(agg.pnp, norm)
				uf.RegionNorm = append(uf.RegionNorm, norm)
				speedups[ti] = append(speedups[ti], sp)
				oracles[ti] = append(oracles[ti], oracleSp)
			}
		}
	}

	uf.Apps = appOrder(perApp[0])
	uf.DefaultNorm = make([][]float64, len(targets))
	uf.PnPNorm = make([][]float64, len(targets))
	for ti := range targets {
		uf.DefaultNorm[ti] = make([]float64, len(uf.Apps))
		uf.PnPNorm[ti] = make([]float64, len(uf.Apps))
		for ai, app := range uf.Apps {
			uf.DefaultNorm[ti][ai] = metrics.GeoMean(perApp[ti][app].def)
			uf.PnPNorm[ti][ai] = metrics.GeoMean(perApp[ti][app].pnp)
		}
		uf.Speedup = append(uf.Speedup, metrics.GeoMean(speedups[ti]))
		uf.OracleSpeedup = append(uf.OracleSpeedup, metrics.GeoMean(oracles[ti]))
	}

	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-14s", "app")
	for ti := range targets {
		fmt.Fprintf(w, "  Default(%3.0fW) PnP(%3.0fW)", uf.TargetCaps[ti], uf.TargetCaps[ti])
	}
	fmt.Fprintln(w)
	for ai, app := range uf.Apps {
		fmt.Fprintf(w, "  %-14s", app)
		for ti := range targets {
			fmt.Fprintf(w, "  %13.3f %9.3f", uf.DefaultNorm[ti][ai], uf.PnPNorm[ti][ai])
		}
		fmt.Fprintln(w)
	}
	for ti := range targets {
		fmt.Fprintf(w, "  at %3.0fW: PnP geomean speedup %.2fx vs oracle %.2fx\n",
			uf.TargetCaps[ti], uf.Speedup[ti], uf.OracleSpeedup[ti])
	}
	fmt.Fprintf(w, "  within 5%% of oracle: %.0f%%, within 20%%: %.0f%%\n",
		100*metrics.FractionAtLeast(uf.RegionNorm, 0.95),
		100*metrics.FractionAtLeast(uf.RegionNorm, 0.80))
	return uf, nil
}

// EDPFigure is the data behind Figs. 6 and 7 for one machine: EDP tuning
// over the joint (cap × config) space, evaluated against default at TDP.
type EDPFigure struct {
	Machine string
	Apps    []string
	// NormEDP[tuner][appIdx]: per-app geomean normalized EDP improvement.
	NormEDP map[string][]float64
	// RegionNormEDP[tuner]: flat per-region normalized EDP improvements.
	RegionNormEDP map[string][]float64
	// Speedup/Greenup[tuner]: flat per-region values vs default at TDP
	// (the Fig. 7 series).
	Speedup map[string][]float64
	Greenup map[string][]float64
	// EDPImprovement[tuner]: geomean EDP improvement over default at TDP.
	EDPImprovement map[string]float64
}

// Fig6And7 reproduces the EDP experiments for machine m: Fig. 6's
// normalized EDP improvements and Fig. 7's speedup/greenup series.
func Fig6And7(w io.Writer, m *hw.Machine, opts Options) (*EDPFigure, error) {
	d, folds, err := opts.folds(m)
	if err != nil {
		return nil, err
	}
	tdpIdx := len(d.Space.Caps()) - 1

	ef := &EDPFigure{
		Machine:        m.Name,
		NormEDP:        map[string][]float64{},
		RegionNormEDP:  map[string][]float64{},
		Speedup:        map[string][]float64{},
		Greenup:        map[string][]float64{},
		EDPImprovement: map[string]float64{},
	}
	perApp := map[string]map[string][]float64{}
	for _, tn := range Tuners {
		perApp[tn] = map[string][]float64{}
	}
	improvements := map[string][]float64{}

	record := func(tuner string, rd *dataset.RegionData, _, joint int) {
		def := rd.DefaultResult(tdpIdx, d.Space)
		ci, ki := d.Space.SplitJoint(joint)
		got := rd.Results[ci][ki]
		bestEDP := rd.BestEDP(d.Space)
		oracleImp := metrics.EDPImprovement(def.EDP(), bestEDP)
		imp := metrics.EDPImprovement(def.EDP(), got.EDP())
		norm := metrics.Normalize(imp, oracleImp)
		perApp[tuner][rd.Region.App] = append(perApp[tuner][rd.Region.App], norm)
		ef.RegionNormEDP[tuner] = append(ef.RegionNormEDP[tuner], norm)
		ef.Speedup[tuner] = append(ef.Speedup[tuner], metrics.Speedup(def.TimeSec, got.TimeSec))
		ef.Greenup[tuner] = append(ef.Greenup[tuner], metrics.Greenup(def.EnergyJ(), got.EnergyJ()))
		improvements[tuner] = append(improvements[tuner], imp)
	}

	targets := core.EDPTargets()
	outs, err := runFolds(d, foldJobs(folds, targets), opts, nil, true)
	if err != nil {
		return nil, err
	}
	scoreFolds(d, folds, outs, targets, d.Space.JointIndex(tdpIdx, d.Space.DefaultIndex()), record)

	ef.Apps = appOrder(perApp[TunerDefault])
	for _, tn := range Tuners {
		row := make([]float64, len(ef.Apps))
		for ai, app := range ef.Apps {
			row[ai] = metrics.GeoMean(perApp[tn][app])
		}
		ef.NormEDP[tn] = row
		ef.EDPImprovement[tn] = metrics.GeoMean(improvements[tn])
	}

	fmt.Fprintf(w, "Fig 6 (%s): normalized EDP improvement over default at TDP (oracle = 1.00)\n", m.Name)
	fmt.Fprintf(w, "  %-14s", "app")
	for _, tn := range Tuners {
		fmt.Fprintf(w, " %12s", tn)
	}
	fmt.Fprintln(w)
	for ai, app := range ef.Apps {
		fmt.Fprintf(w, "  %-14s", app)
		for _, tn := range Tuners {
			fmt.Fprintf(w, " %12.3f", ef.NormEDP[tn][ai])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  geomean EDP improvement: ")
	for _, tn := range Tuners[1:] {
		fmt.Fprintf(w, "%s %.2fx  ", tn, ef.EDPImprovement[tn])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  EDP within 5%%/20%% of oracle: PnP(Static) %.0f%%/%.0f%%, PnP(Dynamic) %.0f%%/%.0f%%, PnP(Hybrid) %.0f%%/%.0f%%, BLISS %.0f%%/%.0f%%, OpenTuner %.0f%%/%.0f%%\n",
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerPnPStatic], 0.95),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerPnPStatic], 0.80),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerPnPDyn], 0.95),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerPnPDyn], 0.80),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerPnPHybrid], 0.95),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerPnPHybrid], 0.80),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerBLISS], 0.95),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerBLISS], 0.80),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerOpenTuner], 0.95),
		100*metrics.FractionAtLeast(ef.RegionNormEDP[TunerOpenTuner], 0.80))

	fmt.Fprintf(w, "Fig 7 (%s): speedups/greenups over default at TDP when tuning for EDP\n", m.Name)
	for _, tn := range Tuners[1:] {
		sp := ef.Speedup[tn]
		gr := ef.Greenup[tn]
		slow := 1 - metrics.FractionAtLeast(sp, 1.0)
		worseE := 1 - metrics.FractionAtLeast(gr, 1.0)
		fmt.Fprintf(w, "  %-13s speedup %s | greenup %s | slowdowns %.0f%%, energy increases %.0f%%\n",
			tn, metrics.Summarize(sp), metrics.Summarize(gr), 100*slow, 100*worseE)
	}
	return ef, nil
}
