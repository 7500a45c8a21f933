package experiments

import (
	"fmt"
	"io"

	"pnptuner/internal/hw"
	"pnptuner/internal/metrics"
)

// AllResults bundles every experiment's data for the summary and for
// programmatic checks.
type AllResults struct {
	Motivation *MotivationResult
	Fig2       *PowerFigure // Haswell
	Fig3       *PowerFigure // Skylake
	Fig4       *UnseenCapFigure
	Fig5       *UnseenCapFigure
	Fig6Sky    *EDPFigure
	Fig6Has    *EDPFigure
}

// RunAll executes every experiment in paper order, printing each figure's
// data followed by the §IV aggregate summary.
func RunAll(w io.Writer, opts Options) (*AllResults, error) {
	all := &AllResults{}
	var err error

	Table1(w)
	fmt.Fprintln(w)
	Table2(w)
	fmt.Fprintln(w)

	if all.Motivation, err = Motivation(w); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	if all.Fig2, err = Fig2(w, opts); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	if all.Fig3, err = Fig3(w, opts); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	if all.Fig4, err = Fig4(w, opts); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	if all.Fig5, err = Fig5(w, opts); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	if all.Fig6Sky, err = Fig6And7(w, hw.Skylake(), opts); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	if all.Fig6Has, err = Fig6And7(w, hw.Haswell(), opts); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	all.Summary(w)
	return all, nil
}

// Summary prints the paper-vs-measured aggregate comparison (§IV claims).
func (all *AllResults) Summary(w io.Writer) {
	fmt.Fprintln(w, "==== Aggregate summary: paper vs this reproduction ====")
	row := func(name string, paper string, measured string) {
		fmt.Fprintf(w, "  %-58s paper %-28s measured %s\n", name, paper, measured)
	}
	if f := all.Fig2; f != nil {
		row("Haswell PnP geomean speedups (40/60/70/85W)",
			"1.19/1.12/1.13/1.14x", fmtSeries(f.Speedup[TunerPnPStatic]))
		row("Haswell BLISS geomean speedups", "1.11/1.09/1.09/1.11x", fmtSeries(f.Speedup[TunerBLISS]))
		row("Haswell OpenTuner geomean speedups", "1.06/1.00/1.04/1.02x", fmtSeries(f.Speedup[TunerOpenTuner]))
	}
	if f := all.Fig3; f != nil {
		row("Skylake PnP geomean speedups (75/100/120/150W)",
			"1.50/1.25/1.26/1.34x", fmtSeries(f.Speedup[TunerPnPStatic]))
		row("Skylake BLISS geomean speedups", "1.29/1.20/1.18/1.17x", fmtSeries(f.Speedup[TunerBLISS]))
		row("Skylake OpenTuner geomean speedups", "1.27/1.13/1.07/1.10x", fmtSeries(f.Speedup[TunerOpenTuner]))
		if f.TransferSpeedup > 0 {
			row("Transfer-learning training speedup", "4.18x", fmt.Sprintf("%.2fx", f.TransferSpeedup))
		}
	}
	if all.Fig2 != nil && all.Fig3 != nil {
		both := append(append([]float64{}, all.Fig2.RegionNorm[TunerPnPStatic]...),
			all.Fig3.RegionNorm[TunerPnPStatic]...)
		bothDyn := append(append([]float64{}, all.Fig2.RegionNorm[TunerPnPDyn]...),
			all.Fig3.RegionNorm[TunerPnPDyn]...)
		bothBliss := append(append([]float64{}, all.Fig2.RegionNorm[TunerBLISS]...),
			all.Fig3.RegionNorm[TunerBLISS]...)
		bothOT := append(append([]float64{}, all.Fig2.RegionNorm[TunerOpenTuner]...),
			all.Fig3.RegionNorm[TunerOpenTuner]...)
		row("PnP(Static) within 5% of oracle (both systems)", "74%",
			fmt.Sprintf("%.0f%%", 100*metrics.FractionAtLeast(both, 0.95)))
		row("PnP(Dynamic) within 5% of oracle", "87.5% (refined cases)",
			fmt.Sprintf("%.0f%%", 100*metrics.FractionAtLeast(bothDyn, 0.95)))
		bothHybrid := append(append([]float64{}, all.Fig2.RegionNorm[TunerPnPHybrid]...),
			all.Fig3.RegionNorm[TunerPnPHybrid]...)
		row(fmt.Sprintf("PnP(Hybrid) within 5%% of oracle (k=%d runs)", HybridK),
			"n/a (this repo's extension)",
			fmt.Sprintf("%.0f%%", 100*metrics.FractionAtLeast(bothHybrid, 0.95)))
		row("BLISS within 5% of oracle", "51%",
			fmt.Sprintf("%.0f%%", 100*metrics.FractionAtLeast(bothBliss, 0.95)))
		row("OpenTuner within 5% of oracle", "34%",
			fmt.Sprintf("%.0f%%", 100*metrics.FractionAtLeast(bothOT, 0.95)))
		row("PnP beats BLISS / OpenTuner", "83% / 78%",
			fmt.Sprintf("%.0f%% / %.0f%%",
				100*metrics.FractionGreater(both, bothBliss),
				100*metrics.FractionGreater(both, bothOT)))
	}
	if f := all.Fig4; f != nil {
		row("Skylake unseen-cap PnP speedups (150W, 75W)",
			"1.29x, 1.36x (oracle 1.44, 1.59)",
			fmt.Sprintf("%.2fx, %.2fx (oracle %.2f, %.2f)",
				f.Speedup[0], f.Speedup[1], f.OracleSpeedup[0], f.OracleSpeedup[1]))
	}
	if f := all.Fig5; f != nil {
		row("Haswell unseen-cap PnP speedups (85W, 40W)",
			"1.13x, 1.17x (oracle 1.16, 1.27)",
			fmt.Sprintf("%.2fx, %.2fx (oracle %.2f, %.2f)",
				f.Speedup[0], f.Speedup[1], f.OracleSpeedup[0], f.OracleSpeedup[1]))
	}
	if all.Fig4 != nil && all.Fig5 != nil {
		both := append(append([]float64{}, all.Fig4.RegionNorm...), all.Fig5.RegionNorm...)
		row("Unseen-cap within 5%/20% of oracle", "64% / 85%",
			fmt.Sprintf("%.0f%% / %.0f%%",
				100*metrics.FractionAtLeast(both, 0.95),
				100*metrics.FractionAtLeast(both, 0.80)))
	}
	if f := all.Fig6Has; f != nil {
		row("Haswell EDP improvement PnP(Static)/BLISS/OpenTuner",
			"1.37x / 1.31x / 1.21x",
			fmt.Sprintf("%.2fx / %.2fx / %.2fx",
				f.EDPImprovement[TunerPnPStatic], f.EDPImprovement[TunerBLISS], f.EDPImprovement[TunerOpenTuner]))
		row("Haswell EDP PnP(Dynamic)", "1.52x",
			fmt.Sprintf("%.2fx", f.EDPImprovement[TunerPnPDyn]))
	}
	if f := all.Fig6Sky; f != nil {
		row("Skylake EDP improvement PnP(Static)/BLISS/OpenTuner",
			"1.85x / 1.69x / 1.49x",
			fmt.Sprintf("%.2fx / %.2fx / %.2fx",
				f.EDPImprovement[TunerPnPStatic], f.EDPImprovement[TunerBLISS], f.EDPImprovement[TunerOpenTuner]))
		row("Skylake EDP PnP(Dynamic)", "2.31x",
			fmt.Sprintf("%.2fx", f.EDPImprovement[TunerPnPDyn]))
	}
	if all.Fig6Sky != nil && all.Fig6Has != nil {
		bothEDP := append(append([]float64{}, all.Fig6Sky.RegionNormEDP[TunerPnPStatic]...),
			all.Fig6Has.RegionNormEDP[TunerPnPStatic]...)
		row("EDP within 5%/20% of oracle (PnP static)", "45% / 69%",
			fmt.Sprintf("%.0f%% / %.0f%%",
				100*metrics.FractionAtLeast(bothEDP, 0.95),
				100*metrics.FractionAtLeast(bothEDP, 0.80)))
		bothSp := append(append([]float64{}, all.Fig6Sky.Speedup[TunerPnPStatic]...),
			all.Fig6Has.Speedup[TunerPnPStatic]...)
		row("EDP tuning: cases with time improvement", "84%",
			fmt.Sprintf("%.0f%%", 100*metrics.FractionAtLeast(bothSp, 1.0)))
		bothGr := append(append([]float64{}, all.Fig6Sky.Greenup[TunerPnPStatic]...),
			all.Fig6Has.Greenup[TunerPnPStatic]...)
		row("EDP tuning: cases with energy reduction", "94%",
			fmt.Sprintf("%.0f%%", 100*metrics.FractionAtLeast(bothGr, 1.0)))
	}
	if m := all.Motivation; m != nil {
		row("LULESH BC oracle speedups at 40/60/70/85W",
			"7.54/2.11/1.80/1.67x", fmtSeries(m.SpeedupAtCap))
		row("LULESH BC EDP point (speedup, greenup)", "1.64x, 2.70x",
			fmt.Sprintf("%.2fx, %.2fx", m.EDPSpeedup, m.EDPGreenup))
	}
}

func fmtSeries(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprintf("%.2f", x)
	}
	return out + "x"
}
