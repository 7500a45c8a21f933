// Command experiments regenerates the paper's tables and figures on the
// simulated testbeds.
//
// Usage:
//
//	experiments -run all            # everything, full scale (about 4 min on 2 vCPUs)
//	experiments -run fig2 -quick    # one figure at reduced scale
//	experiments -run table1,motivation
//
// Available experiment names: table1, table2, motivation, fig2, fig3,
// fig4, fig5, fig6 (includes fig7), all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pnptuner/internal/experiments"
	"pnptuner/internal/hw"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments: table1,table2,motivation,fig2,fig3,fig4,fig5,fig6,all")
	quick := flag.Bool("quick", false, "reduced scale (fewer folds/epochs) for smoke runs")
	folds := flag.Int("folds", 0, "limit LOOCV folds (0 = all 30)")
	epochs := flag.Int("epochs", 0, "override training epochs (0 = default)")
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *folds > 0 {
		opts.MaxFolds = *folds
	}
	if *epochs > 0 {
		opts.Model.Epochs = *epochs
	}

	w := os.Stdout
	var err error
	for _, name := range strings.Split(*run, ",") {
		switch strings.TrimSpace(name) {
		case "all":
			_, err = experiments.RunAll(w, opts)
		case "table1":
			experiments.Table1(w)
		case "table2":
			experiments.Table2(w)
		case "motivation":
			_, err = experiments.Motivation(w)
		case "fig2":
			_, err = experiments.Fig2(w, opts)
		case "fig3":
			_, err = experiments.Fig3(w, opts)
		case "fig4":
			_, err = experiments.Fig4(w, opts)
		case "fig5":
			_, err = experiments.Fig5(w, opts)
		case "fig6", "fig7":
			if _, err = experiments.Fig6And7(w, hw.Skylake(), opts); err == nil {
				_, err = experiments.Fig6And7(w, hw.Haswell(), opts)
			}
		default:
			err = fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}
}
