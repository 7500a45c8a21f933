// Command pnptune is the end-to-end PnP tuner CLI: one front door to
// every tuning strategy of the unified autotune engine.
//
// The default strategy ("gnn") trains the GNN on every corpus
// application except the target (leave-one-out, as the paper evaluates)
// and prints the recommended OpenMP configuration for each region of the
// target application — without executing the target. "hybrid" lets the
// model shortlist top candidates and validates them with a few noisy
// executions; "bliss" and "opentuner" run the search baselines under
// their execution budgets, no model at all.
//
// Trained models are reusable artifacts: -save persists the model after
// training, and -load serves predictions from a saved model without
// retraining (the registry and pnpserve build on the same format).
//
// Usage:
//
//	pnptune -machine haswell -app LULESH -cap 40
//	pnptune -machine skylake -app gemm -objective edp
//	pnptune -machine haswell -app LULESH -strategy hybrid -budget 3
//	pnptune -machine haswell -app XSBench -strategy bliss -budget 20
//	pnptune -machine haswell -app gemm -strategy opentuner -objective energy
//	pnptune -machine haswell -app LULESH -save lulesh.pnpm
//	pnptune -machine haswell -app LULESH -load lulesh.pnpm
//	pnptune -list                      # list corpus applications
//
// With -remote, pnptune becomes a thin front-end to a running pnpserve:
// every region of the target application is tuned server-side through
// the v1 API (the server trains or loads the models), and -async routes
// each session through the async job endpoints instead of blocking the
// request.
//
//	pnptune -machine haswell -app gemm -remote http://localhost:8080
//	pnptune -machine haswell -app gemm -strategy hybrid -remote http://localhost:8080 -async
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/autotune"
	"pnptuner/internal/bliss"
	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/experiments"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/metrics"
	"pnptuner/internal/opentuner"
)

// Valid flag values, also the rejection messages' contents.
var (
	validObjectives = append(slices.Clone(core.TrainedObjectives), "energy")
	validStrategies = []string{"gnn", "bliss", "opentuner", "hybrid"}
)

func main() {
	machine := flag.String("machine", "haswell", "machine model: haswell or skylake")
	app := flag.String("app", "", "target application (see -list)")
	capW := flag.Float64("cap", 0, "power cap in watts (0 = all Table I caps)")
	objective := flag.String("objective", "time", "tuning objective: "+strings.Join(validObjectives, ", "))
	strategy := flag.String("strategy", "gnn", "tuning strategy: "+strings.Join(validStrategies, ", "))
	budget := flag.Int("budget", 0, "execution budget per tuning task (0 = strategy default)")
	epochs := flag.Int("epochs", 0, "override training epochs")
	savePath := flag.String("save", "", "save the trained model to this path")
	loadPath := flag.String("load", "", "load a saved model instead of training")
	remote := flag.String("remote", "", "pnpserve base URL: tune server-side via the v1 API instead of in-process models")
	async := flag.Bool("async", false, "with -remote, run each session as an async job (submit → poll → result)")
	measureBudget := flag.Int("measure", 0,
		"with -remote, real executions granted per session instead of dataset replay; samples feed the server's model refresh (0 = replay)")
	list := flag.Bool("list", false, "list corpus applications and exit")
	flag.Parse()

	if *list {
		for _, name := range kernels.AppNames() {
			fmt.Println(name)
		}
		return
	}
	// Reject unknown enum flags loudly, listing the valid values —
	// never fall back to a default silently.
	if !slices.Contains(validObjectives, *objective) {
		fatal(fmt.Errorf("unknown objective %q (valid: %s)", *objective, strings.Join(validObjectives, ", ")))
	}
	if !slices.Contains(validStrategies, *strategy) {
		fatal(fmt.Errorf("unknown strategy %q (valid: %s)", *strategy, strings.Join(validStrategies, ", ")))
	}
	modelDriven := *strategy == "gnn" || *strategy == "hybrid"
	if modelDriven && !slices.Contains(core.TrainedObjectives, *objective) {
		fatal(fmt.Errorf("objective \"energy\" has no trained model; use -strategy bliss or opentuner"))
	}
	if *budget < 0 {
		fatal(fmt.Errorf("negative budget %d", *budget))
	}
	if *app == "" {
		fmt.Fprintln(os.Stderr, "pnptune: -app is required (try -list)")
		os.Exit(2)
	}
	if *async && *remote == "" {
		fatal(fmt.Errorf("-async only applies with -remote"))
	}
	if *measureBudget != 0 && *remote == "" {
		fatal(fmt.Errorf("-measure only applies with -remote"))
	}
	if *remote != "" {
		runRemote(*remote, *machine, *app, *objective, *strategy, *capW, *budget, *measureBudget, *async)
		return
	}

	m, err := hw.ByName(*machine)
	if err != nil {
		fatal(err)
	}
	d, err := dataset.Build(m)
	if err != nil {
		fatal(err)
	}
	fold, found := d.FoldByApp(*app)
	if !found {
		fatal(fmt.Errorf("unknown application %q (try -list)", *app))
	}

	cfg := core.DefaultModelConfig()
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	scenario := "loocv:" + fold.App

	var entry autotune.Entry
	switch *strategy {
	case "gnn":
		entry = modelEntry(d, fold, cfg, scenario, *objective, *loadPath, *savePath, 0)
	case "hybrid":
		entry = modelEntry(d, fold, cfg, scenario, *objective, *loadPath, *savePath, pick(*budget, experiments.HybridK))
	case "bliss":
		entry = searchEntry(bliss.Entry("BLISS"), pick(*budget, bliss.Budget))
	case "opentuner":
		entry = searchEntry(opentuner.Entry("OpenTuner"), pick(*budget, opentuner.Budget))
	}
	printPicks(d, fold, *objective, *capW, entry)
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// modelEntry trains (or loads) the model and tunes with it. With k=0
// (strategy gnn) it is the paper's zero-execution scenario: the model's
// argmax picks, predicted in the float64 the model trains in. With
// k>0 (strategy hybrid) the model shortlists its top-k and a noisy k-run
// budget per tuning task validates them.
func modelEntry(d *dataset.Dataset, fold dataset.Fold, cfg core.ModelConfig, scenario, objective, loadPath, savePath string, k int) autotune.Entry {
	m := model(d, fold, cfg, scenario, objective, loadPath, savePath)
	if k == 0 {
		picks := m.Picks(fold.Val, 0)
		return autotune.FixedEntry(experiments.TunerPnPStatic, func(t autotune.Task) int {
			return picks[t.RegionID][core.HeadOf(t.Obj)]
		})
	}
	fmt.Printf("hybrid tuning: model shortlists top-%d, %d validation runs per task\n", k, k)
	topk := m.TopK(fold.Val, 0, k)
	entry := autotune.HybridEntry(experiments.TunerPnPHybrid, func(t autotune.Task) []int {
		return topk[t.RegionID][core.HeadOf(t.Obj)]
	})
	entry.Budget = k
	return entry
}

// searchEntry is a model-free search baseline under its execution budget.
func searchEntry(entry autotune.Entry, budget int) autotune.Entry {
	entry.Budget = budget
	fmt.Printf("strategy %s: %d executions per tuning task, no model\n", entry.Name, budget)
	return entry
}

// model trains the fold's model for objective, or loads it from
// loadPath, and saves it when savePath is set.
func model(d *dataset.Dataset, fold dataset.Fold, cfg core.ModelConfig, scenario, objective, loadPath, savePath string) *core.Model {
	var m *core.Model
	var meta core.ModelMeta
	if loadPath != "" {
		m, meta = loadModel(loadPath, d, objective, scenario)
	} else {
		var stats core.TrainStats
		targets, err := core.ObjectiveTargets(d.Space, objective)
		if err == nil {
			m, stats, err = core.Train(d, fold.Train, targets, cfg, nil)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trained on %d regions in %s (loss %.3f)\n",
			len(fold.Train), stats.Duration.Round(1e7), stats.FinalLoss)
		meta = core.MetaFor(d, scenario, objective)
	}
	// meta is the model's true provenance — for a -load'ed model, its
	// original metadata, so re-saving can never relabel what the model
	// was trained on.
	if savePath != "" {
		if err := m.Save(savePath, meta); err != nil {
			fatal(err)
		}
		fmt.Printf("saved model to %s\n", savePath)
	}
	return m
}

// printPicks tunes the target's regions under objective, one engine
// session of entry per tuning task, and prints the picks: per cap for
// "time", one joint (cap, config) pick per region otherwise, with
// improvement vs default at TDP and fraction of the oracle.
func printPicks(d *dataset.Dataset, fold dataset.Fold, objective string, capW float64, entry autotune.Entry) {
	pick := func(rd *dataset.RegionData, obj autotune.Objective) (int, string) {
		res := autotune.RunEntry(entry, rd, autotune.Task{
			Problem:  autotune.Problem{Obj: obj, Space: d.Space, Seed: rd.Region.Seed},
			RegionID: rd.Region.ID,
		})
		if res.Evals > 0 {
			return res.Best, fmt.Sprintf(" [%d runs]", res.Evals)
		}
		return res.Best, ""
	}
	tdpIdx := len(d.Space.Caps()) - 1
	for _, rd := range fold.Val {
		if objective == "time" {
			fmt.Printf("region %s:\n", rd.Region.ID)
			for ci, cw := range d.Space.Caps() {
				if capW != 0 && cw != capW {
					continue
				}
				idx, runs := pick(rd, autotune.TimeUnderCap{Cap: ci})
				def := rd.DefaultResult(ci, d.Space).TimeSec
				fmt.Printf("  %3.0fW: %-22s speedup vs default %.2fx (oracle %.2fx)%s\n",
					cw, d.Space.Configs[idx], metrics.Speedup(def, rd.Results[ci][idx].TimeSec),
					metrics.Speedup(def, rd.BestTime(ci)), runs)
			}
			continue
		}
		var obj autotune.Objective = autotune.EDP{}
		if objective == "energy" {
			obj = autotune.Energy{}
		}
		idx, runs := pick(rd, obj)
		cw, cfgP := d.Space.At(idx)
		ci, ki := d.Space.SplitJoint(idx)
		def := rd.DefaultResult(tdpIdx, d.Space)
		got := rd.Results[ci][ki]
		if objective == "energy" {
			_, oracleV := autotune.Oracle(rd, d.Space, obj)
			fmt.Printf("region %s: cap %3.0fW, %-22s greenup %.2fx, speedup %.2fx, oracle frac %.2f%s\n",
				rd.Region.ID, cw, cfgP,
				metrics.Greenup(def.EnergyJ(), got.EnergyJ()),
				metrics.Speedup(def.TimeSec, got.TimeSec),
				oracleV/obj.Value(rd, d.Space, idx), runs)
			continue
		}
		fmt.Printf("region %s: cap %3.0fW, %-22s EDP improvement %.2fx, speedup %.2fx, greenup %.2fx%s\n",
			rd.Region.ID, cw, cfgP,
			metrics.EDPImprovement(def.EDP(), got.EDP()),
			metrics.Speedup(def.TimeSec, got.TimeSec),
			metrics.Greenup(def.EnergyJ(), got.EnergyJ()), runs)
	}
}

// loadModel restores a saved model (and its original metadata) and
// refuses one trained for a different machine, search space, or
// objective. A scenario mismatch only warns: serving a model for an app
// it trained on is legitimate, but the printed "vs oracle" numbers are
// then inflated by training leakage and must not be read as held-out.
func loadModel(path string, d *dataset.Dataset, objective, wantScenario string) (*core.Model, core.ModelMeta) {
	m, meta, err := core.LoadModel(path)
	if err != nil {
		fatal(err)
	}
	if err := meta.Check(d); err != nil {
		fatal(err)
	}
	if meta.Objective != objective {
		fatal(fmt.Errorf("model %s was trained for objective %q, not %q", path, meta.Objective, objective))
	}
	if meta.Scenario != wantScenario {
		fmt.Fprintf(os.Stderr,
			"pnptune: warning: model was trained for scenario %q, not %q — the target's regions may have been in its training set, so reported improvements are not held-out numbers\n",
			meta.Scenario, wantScenario)
	}
	fmt.Printf("loaded model %s (%s/%s/%s), skipping training\n",
		path, meta.Machine, meta.Objective, meta.Scenario)
	return m, meta
}

// runRemote tunes every region of the target application through a
// running pnpserve: the same leave-one-out scenario as local mode, but
// the server owns the models and the engine sessions. With async, each
// session goes submit → poll → result through the job endpoints (the
// finished job's result is bit-identical to the synchronous reply).
func runRemote(base, machine, app, objective, strategy string, capW float64, budget, measureBudget int, async bool) {
	corpus, err := kernels.Compile()
	if err != nil {
		fatal(err)
	}
	regions, ok := corpus.ByApp[app]
	if !ok {
		fatal(fmt.Errorf("unknown application %q (try -list)", app))
	}

	c := client.New(base, client.WithRetries(3, 200*time.Millisecond))
	ctx := context.Background()
	mode := "sync"
	if async {
		mode = "async jobs"
	}
	fmt.Printf("remote tuning via %s (%s): machine %s, strategy %s, objective %s\n",
		base, mode, machine, strategy, objective)

	for _, region := range regions {
		req := api.TuneRequest{
			Machine:       machine,
			Objective:     objective,
			Strategy:      strategy,
			Scenario:      "loocv:" + app,
			RegionID:      region.ID,
			Budget:        budget,
			MeasureBudget: measureBudget,
		}
		var resp *api.TuneResponse
		if async {
			job, err := c.TuneAsync(ctx, req)
			if err != nil {
				fatal(remoteErr(err))
			}
			fin, err := c.Wait(ctx, job.ID, 100*time.Millisecond)
			if err != nil {
				fatal(remoteErr(err))
			}
			switch fin.Status {
			case api.JobDone:
				resp = fin.Result
			case api.JobFailed:
				fatal(fmt.Errorf("job %s failed: %v", fin.ID, fin.Error))
			default:
				fatal(fmt.Errorf("job %s ended %s", fin.ID, fin.Status))
			}
		} else {
			resp, err = c.Tune(ctx, req)
			if err != nil {
				fatal(remoteErr(err))
			}
		}

		header := ""
		if resp.ModelVersion > 0 {
			header += fmt.Sprintf(" (model v%d)", resp.ModelVersion)
		}
		if resp.MeasuredRuns > 0 {
			header += fmt.Sprintf(" [%d measured runs]", resp.MeasuredRuns)
		}
		fmt.Printf("region %s:%s\n", resp.RegionID, header)
		for _, p := range resp.Picks {
			if capW != 0 && p.CapW != capW {
				continue
			}
			runs := ""
			if p.Evals > 0 {
				runs = fmt.Sprintf(" [%d runs]", p.Evals)
			}
			fmt.Printf("  %3.0fW: %-22s oracle frac %.2f%s\n", p.CapW, p.Config, p.OracleFrac, runs)
		}
	}
}

// remoteErr decorates API failures with an actionable hint.
func remoteErr(err error) error {
	switch client.ErrorCode(err) {
	case api.CodeModelNotFound:
		return fmt.Errorf("%w\n(the server has no trainer for this model; preload it or start pnpserve with training enabled)", err)
	case "":
		return fmt.Errorf("%w\n(is pnpserve running at the -remote URL?)", err)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pnptune: %v\n", err)
	os.Exit(1)
}
