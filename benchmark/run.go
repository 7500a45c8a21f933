package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pnptuner/internal/registry"
)

// defaultSeconds is the nominal measured-phase length: BENCHMARK.json's
// run_seconds. The sizes ISSUE 12 prototyped were 30 s phases; the
// driver's cap (92 runs with three cold set-ups each inside 3420 s)
// leaves room for a third of that, so every workload's op count is
// scaled by the same 1/3.
const defaultSeconds = 10

// scale sizes a run. Only -smoke and the tests use anything but
// fullScale.
type scale struct {
	smoke   bool
	seconds float64
	ladderN int // requests replayed through the ladder
	reps    int // repetitions of each direct-call measurement
	setups  int // cold set-ups whose median is setup_s
}

func fullScale(seconds float64) scale {
	return scale{seconds: seconds, ladderN: 200, reps: 20, setups: 3}
}

func smokeScale() scale { return scale{smoke: true, seconds: 0.15, ladderN: 8, reps: 2, setups: 1} }

type runConfig struct {
	seed    int64
	scale   scale
	trace   bool
	scratch string // replica stores live under here while a run lasts
	outDir  string // spans.jsonl files land here
}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// setupTime is how long one set-up took: at reference speed (calib.go),
// which is what setup_s reports, and as the clock measured it.
type setupTime struct{ ref, raw time.Duration }

// setup brings a workload to "warm-up passed" and returns the fleet
// (offline-only for train-loocv) and how long that took.
func setup(workload string, rec *recorder, scratch string, meter *speedometer) (*fleet, setupTime, error) {
	if !knownWorkload(workload) {
		return nil, setupTime{}, fmt.Errorf("unknown workload %q (have %s, all)", workload, strings.Join(workloadNames, ", "))
	}
	start := time.Now()
	f, err := build(workload, rec, scratch)
	end := time.Now()
	if err != nil {
		return nil, setupTime{}, err
	}
	return f, setupTime{ref: meter.curve().atRef(start, end), raw: end.Sub(start)}, nil
}

// build is what setup times.
func build(workload string, rec *recorder, scratch string) (*fleet, error) {
	f, err := setupOffline(rec)
	if err != nil || workload == wlTrainLOOCV {
		return f, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	var refresh registry.RefreshConfig
	if workload == wlTuneRefresh {
		refresh = tuneRefresh
	}
	if err := setupFleet(f, rec, scratch, refresh); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// setupOnce is -setup-only: one set-up in this (fresh) process.
func setupOnce(workload, scratch string) (setupTime, error) {
	meter := startSpeedometer()
	defer meter.halt()
	f, d, err := setup(workload, nil, scratch, meter)
	if err != nil {
		return setupTime{}, err
	}
	f.close()
	return d, nil
}

// coldSetups re-executes this binary n times with -setup-only and
// returns each child's set-up time. A fresh process is the only way to
// get dataset.Build's cache and the corpus compile cold again.
func coldSetups(workload string, n int) ([]setupTime, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupTime
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", workload, "-setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("cold set-up %d: %w", i, err)
		}
		var ref, raw float64
		if _, err := fmt.Sscan(string(b), &ref, &raw); err != nil {
			return nil, fmt.Errorf("cold set-up %d printed %q: %w", i, b, err)
		}
		out = append(out, setupTime{ref: seconds(ref), raw: seconds(raw)})
	}
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runWorkload is one run: set-up, the measured phase, and either the
// end-to-end metrics or (traced) the per-layer ones.
func runWorkload(workload string, cfg runConfig) (*result, error) {
	var setups []setupTime
	if !cfg.trace {
		cold, err := coldSetups(workload, cfg.scale.setups-1)
		if err != nil {
			return nil, err
		}
		setups = cold
	}
	meter := startSpeedometer()
	defer meter.halt()
	rec := newRecorder()
	rec.meter = meter
	f, d, err := setup(workload, rec, cfg.scratch, meter)
	if err != nil {
		return nil, err
	}
	defer f.close()
	setups = append(setups, d)

	w, err := prepare(workload, f, cfg)
	if err != nil {
		return nil, err
	}
	before, err := scrapeFleet(f)
	if err != nil {
		return nil, err
	}
	p := runPhase(w, meter)
	after, err := scrapeFleet(f)
	if err != nil {
		return nil, err
	}
	p.reportFailures(workload)

	e2e, attempted, failed := p.endToEnd()
	var ref, raw []time.Duration
	for _, s := range setups {
		ref, raw = append(ref, s.ref), append(raw, s.raw)
	}
	e2e["setup_s"], e2e["raw.setup_s"] = median(ref).Seconds(), median(raw).Seconds()
	res := &result{Workload: workload, Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]value{}, AsMeasured: map[string]value{}}
	if !cfg.trace {
		for _, s := range endToEndSpecs {
			res.Metrics[s.Name] = value{e2e[s.Name], s.Unit}
			if v, ok := e2e["raw."+s.Name]; ok {
				res.AsMeasured["raw."+s.Name] = value{v, s.Unit}
			}
		}
		res.AsMeasured["host.speed"] = value{e2e["host.speed"], "ratio"}
		res.AsMeasured["host.frozen_ms"] = value{e2e["host.frozen_ms"], "ms"}
		return res, nil
	}

	layers, err := traced(w, f, cfg, rec, p, e2e, before.delta(after))
	if err != nil {
		return nil, err
	}
	for _, s := range perLayerSpecs {
		res.Metrics[s.Name] = value{layers[s.Name], s.Unit}
	}
	return res, rec.writeJSONL(filepath.Join(cfg.outDir, workload+".spans.jsonl"))
}

// prepared is a workload ready for its measured phase.
type prepared struct {
	name    string
	env     *env
	ops     []op
	workers int
	open    bool
	do      func(op) (float64, error)
}

// prepare builds the workload's inputs from the seed: regions, the
// expected answers, and the op sequence. This is the benchmark's own
// preparation, after the system's set-up and outside setup_s.
func prepare(workload string, f *fleet, cfg runConfig) (*prepared, error) {
	w := &prepared{name: workload, workers: clients}
	ctx := context.Background()
	secs := cfg.scale.seconds

	if workload == wlTrainLOOCV {
		apps := len(f.datasets[machines[0]].LOOCVFolds())
		w.ops = foldOps(cfg.seed, opCount(loocvRate, secs), apps)
		w.workers = 1 // a fold's kernels already fan out over both cores
		w.do = func(o op) (float64, error) { return doFold(f, o) }
		return w, nil
	}

	var regions []region
	var err error
	if workload == wlServeLarge {
		regions, err = bigRegions(cfg.seed, f)
	} else {
		regions, err = corpusRegions(f)
	}
	if err != nil {
		return nil, err
	}
	w.env = newEnv(f, regions)
	w.do = func(o op) (float64, error) { return w.env.do(ctx, o) }

	switch workload {
	case wlServeSteady:
		w.ops = predictOps(cfg.seed, opCount(steadyRate, secs), len(regions), len(f.keys))
		poissonSchedule(cfg.seed, w.ops, steadyRate)
		w.open = true
	case wlServeLarge:
		w.ops = predictOps(cfg.seed, opCount(largeRate, secs), len(regions), len(f.keys))
	case wlTuneRefresh:
		w.ops = tuneOps(cfg.seed, opCount(tuneRate, secs), len(regions), len(f.keys))
		return w, nil // the served model changes under the run: no fixed expected picks
	}
	return w, w.env.computeExpect()
}

// bigRegions generates serve-large's regions: numBig sources whose
// statement counts step evenly from genMinStmts to genMaxStmts, so
// graph sizes are the same for every seed and only their contents
// differ.
func bigRegions(seed int64, f *fleet) ([]region, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []region
	for i := 0; i < numBig; i++ {
		stmts := genMinStmts + i*(genMaxStmts-genMinStmts)/(numBig-1)
		br, err := genRegion(rng, fmt.Sprintf("gen%d", i), stmts, f.corpus.Vocab)
		if err != nil {
			return nil, err
		}
		body, err := br.graph.MarshalJSON()
		if err != nil {
			return nil, err
		}
		out = append(out, region{id: br.id, graph: br.graph, body: body, truth: br.truth})
	}
	return out, nil
}

// runAll is `-workload all`: every workload twice in fresh processes —
// untraced for the end-to-end metrics, traced for the layers — merged
// into one result set.
func runAll(cfg runConfig, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := newResultSet(cfg)
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.scale.seconds, 'g', -1, 64), "-trace", trace}
			if cfg.scale.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			os.Stdout.Write(b)
			if err != nil {
				return fmt.Errorf("%s (trace %s): %w", name, trace, err)
			}
			if err := set.add(name, b); err != nil {
				return err
			}
		}
	}
	if outPath == "" {
		return nil
	}
	return set.write(outPath)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
