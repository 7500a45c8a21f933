package main

import (
	"context"
	"fmt"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/autotune"
	"pnptuner/internal/bliss"
	"pnptuner/internal/core"
	"pnptuner/internal/frontend"
	"pnptuner/internal/kernels"
	"pnptuner/internal/measure"
	"pnptuner/internal/opentuner"
	"pnptuner/internal/registry"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/tensor"
)

// traced is the second half of a -trace 1 run: with the measured phase
// done, it replays requests through the ladder, times direct calls into
// the layers the workload leans on, folds in the /metrics deltas and
// process counters of the measured phase, and returns every per-layer
// metric (those that do not apply stay 0). Times the benchmark's own
// spans measured are at reference speed, like the end-to-end metrics;
// times the fleet measured itself (the /metrics histograms) are as its
// own clock saw them.
func traced(w *prepared, f *fleet, cfg runConfig, rec *recorder, p phase, e2e map[string]float64, d scrapes) (map[string]float64, error) {
	out := map[string]float64{"host.speed": e2e["host.speed"], "host.frozen_ms": e2e["host.frozen_ms"]}
	procLayers(out, w, p)
	out["dataset.build_s"] = median(rec.durations("setup.dataset.build")).Seconds()
	err := timed(out, rec, "kernels.compile", cfg.scale.reps, func() error {
		for _, app := range kernels.Apps() {
			if _, _, err := frontend.Compile(app.Name, app.Source); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if w.name == wlTrainLOOCV {
		return out, trainLayers(out, f, rec, cfg.scale.reps)
	}
	serverLayers(out, d)
	models, err := restoreServed(f)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range models {
			s.batcher.Close()
		}
	}()
	n := cfg.scale.ladderN
	if w.name == wlServeLarge {
		n = (n + 3) / 4 // a large request costs ~10× a corpus one on every rung
	}
	if err := ladder(w, f, rec, models, n, out); err != nil {
		return nil, err
	}
	out["ladder.load_gap_ms"] = e2e["op_p50_ms"] - out["client.rtt_ms"]
	if w.name == wlTuneRefresh {
		tuneCounters(out, d)
		return out, tuneLayers(out, w, f, rec, models, (n+7)/8, cfg.scale.reps)
	}
	return out, nil
}

// timed runs fn reps times, one span each, and stores the median in
// out[name+"_ms"].
func timed(out map[string]float64, rec *recorder, name string, reps int, fn func() error) error {
	for i := 0; i < reps; i++ {
		id := rec.begin(name, 0, 0)
		err := fn()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	out[name+"_ms"] = ms(median(rec.durations(name)))
	return nil
}

// procLayers reports what the process and the generator did during the
// measured phase.
func procLayers(out map[string]float64, w *prepared, p phase) {
	var lats, late []time.Duration
	for _, s := range p.samples {
		if s.err == nil {
			lats = append(lats, p.speed.atRef(s.from, s.from.Add(s.lat)))
		}
		late = append(late, s.late)
	}
	out["client.op_p99_ms"] = ms(quantile(sortedCopy(lats), 0.99))
	out["proc.alloc_kb_per_op"] = float64(p.mem.allocBytes) / 1024 / float64(len(p.samples))
	out["proc.gc_cycles"] = float64(p.mem.gcCycles)
	out["proc.gc_pause_ms_total"] = ms(p.mem.gcPause)
	if w.open {
		out["gen.late_p90_ms"] = ms(quantile(sortedCopy(late), 0.90))
		out["gen.final_backlog_ms"] = ms(late[len(late)-1])
	}
}

// serverLayers reads the fleet's own counters over the measured phase.
func serverLayers(out map[string]float64, d scrapes) {
	r, g := d.replicas, d.gate
	out["registry.batcher.window_mean"] = mean(r, "pnp_batch_window_size")
	out["registry.batcher.queue_wait_mean_ms"] = 1e3 * mean(r, "pnp_batch_queue_wait_seconds")
	out["registry.batcher.forward_mean_ms"] = 1e3 * mean(r, "pnp_batch_forward_seconds")
	out["registry.batcher.shed"] = sum(r, "pnp_batch_shed_total")
	out["registry.disk_loads"] = sum(r, "pnp_registry_disk_loads_total")
	// Every resolve that did not hit the cache. With none at all — the
	// batchers were resident, the registry was never asked — nothing
	// missed, which reads as 1.
	hits := sum(r, "pnp_registry_cache_hits_total")
	misses := out["registry.disk_loads"] + sum(r, "pnp_registry_models_trained_total") + sum(r, "pnp_registry_models_fetched_total")
	out["registry.cache.hit_frac"] = 1
	if hits+misses > 0 {
		out["registry.cache.hit_frac"] = hits / (hits + misses)
	}
	out["registry.http_mean_ms"] = 1e3 * mean(r, "pnp_http_request_duration_seconds")
	out["gate.http_mean_ms"] = 1e3 * mean(g, "pnpgate_http_request_duration_seconds")
	out["gate.hedges"] = sum(g, "pnpgate_hedges_total")
	out["gate.hedge_wins"] = sum(g, "pnpgate_hedge_wins_total")
	out["gate.retries"] = sum(g, "pnpgate_retries_total")
	out["gate.failovers"] = sum(g, "pnpgate_failovers_total")
	out["gate.degraded"] = sum(g, "pnpgate_degraded_total")
}

// tuneCounters reads the write side's counters over the measured phase.
func tuneCounters(out map[string]float64, d scrapes) {
	r := d.replicas
	if sessions := sum(r, "pnp_engine_sessions_total"); sessions > 0 {
		out["autotune.evals_per_session"] = sum(r, "pnp_engine_evals_total") / sessions
	}
	out["measure.runs"] = sum(r, "pnp_measure_runs_total")
	out["registry.jobs.done"] = sum(r, `pnp_jobs_total{outcome="done"}`)
	out["registry.jobs.rejected"] = sum(r, "pnp_jobs_rejected_total")
	out["registry.refresh.retrains"] = sum(r, `pnp_model_train_seconds_count{kind="retrain"}`)
	out["registry.canary.scored"] = sum(r, "pnp_canary_scored_total")
	out["registry.canary.promotions"] = sum(r, `pnp_canary_verdicts_total{verdict="promote"}`)
	out["registry.canary.demotions"] = sum(r, `pnp_canary_verdicts_total{verdict="demote"}`)
}

// tuneLayers times the write side by direct call and by ladder: one
// engine session per strategy at the workload's budget, one measured
// run, the same tune request synchronously (gate, then owning replica)
// and as an async job, and one refresh retrain.
func tuneLayers(out map[string]float64, w *prepared, f *fleet, rec *recorder, models map[registry.Key]*served, n, reps int) error {
	ctx := context.Background()

	done := map[string]int{}
	trace := 0
	var retrainKey registry.Key
	for _, o := range w.ops {
		if o.kind == opPredict || done[o.strategy] == n {
			continue
		}
		done[o.strategy]++
		trace++
		k := f.keys[o.key]
		kr := f.corpus.Regions[o.region]
		d := f.datasets[k.Machine]
		rd := d.Region(kr.ID)

		// One engine session, in-process, as the server builds it.
		var obj autotune.Objective = autotune.EDP{}
		if k.Objective == registry.ObjectiveTime {
			obj = autotune.TimeUnderCap{Cap: 0}
		}
		shortlist := models[k].model.TopKCompiled([]*rgcn.CompiledGraph{kr.CompiledGraph()}, nil, tuneBudget)[0][0]
		var entry autotune.Entry
		switch o.strategy {
		case "gnn":
			entry = autotune.FixedEntry("gnn", func(autotune.Task) int { return shortlist[0] })
		case "hybrid":
			entry = autotune.HybridEntry("hybrid", func(autotune.Task) []int { return shortlist })
		case "bliss":
			entry = bliss.Entry("bliss")
		default:
			entry = opentuner.Entry("opentuner")
		}
		if o.strategy != "gnn" {
			entry.Budget = tuneBudget
		}
		task := autotune.Task{Problem: autotune.Problem{Obj: obj, Space: d.Space, Seed: o.seed}, RegionID: kr.ID}
		id := rec.begin("autotune.session."+o.strategy, trace, 0)
		res := autotune.RunEntry(entry, rd, task)
		rec.end(id)
		if res.Evals > entry.Budget {
			return fmt.Errorf("in-process %s session: %d evals over budget %d", o.strategy, res.Evals, entry.Budget)
		}

		// One real execution on the simulated testbed; its sample feeds
		// the retrain below.
		runner := measure.NewRunner(d.Machine, kr, d.Space, o.seed, -1)
		id = rec.begin("measure.run", trace, 0)
		runner.Evaluator(obj).Measure(res.Best)
		rec.end(id)
		f.owner(k).reg.SampleLog(k).Append(runner.DatasetSamples()...)
		retrainKey = k

		// The same request, three ways.
		req := api.TuneRequest{Machine: k.Machine, Objective: k.Objective, Scenario: k.Scenario,
			Strategy: o.strategy, RegionID: kr.ID, Budget: tuneBudget, Seed: o.seed}
		l0 := rec.begin("client.tune@gate", trace, 0)
		_, err := w.env.gate.Tune(ctx, req)
		rec.end(l0)
		if err != nil {
			return err
		}
		l1 := rec.begin("client.tune@replica", trace, l0)
		_, err = f.client(f.owner(k).url).Tune(ctx, req)
		rec.end(l1)
		if err != nil {
			return err
		}
		id = rec.begin("client.tune_async@gate", trace, 0)
		job, err := w.env.gate.TuneAsync(ctx, req)
		if err == nil {
			job, err = w.env.gate.Wait(ctx, job.ID, time.Millisecond)
		}
		rec.end(id)
		if err != nil || job.Status != api.JobDone {
			return fmt.Errorf("ladder async %s job: %v (%v)", o.strategy, err, job)
		}
	}

	for _, s := range []string{"gnn", "hybrid", "bliss", "opentuner"} {
		out["autotune.session_ms."+s] = ms(median(rec.durations("autotune.session." + s)))
	}
	out["measure.run_us"] = float64(median(rec.durations("measure.run"))) / float64(time.Microsecond)
	out["registry.jobs.overhead_ms"] = ms(median(rec.durations("client.tune_async@gate")) - median(rec.durations("client.tune@gate")))

	if trace == 0 {
		return nil
	}
	reg := f.owner(retrainKey).reg
	cur, err := reg.Get(retrainKey)
	if err != nil {
		return err
	}
	return timed(out, rec, "registry.retrain", (reps+4)/5, func() error {
		_, err := reg.Retrain(retrainKey, cur, tuneRefresh.Epochs)
		return err
	})
}

// trainLayers times the training pipeline's parts by direct call on the
// Haswell time-objective model, the shapes BenchmarkFitEpoch and
// BenchmarkPredictSweep use.
func trainLayers(out map[string]float64, f *fleet, rec *recorder, reps int) error {
	d := f.datasets["haswell"]
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 1
	m := core.NewModel(cfg, d.Corpus.Vocab.Size(), len(d.Space.Caps()), d.Space.NumConfigs())

	var samples []core.Sample
	var q *core.CompiledModel
	var blob []byte
	regions := f.corpus.Regions[:cfg.BatchSize]
	meta := core.MetaFor(d, registry.ScenarioFull, registry.ObjectiveTime)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"core.samples", func() error { samples = core.PowerSamples(d, d.Regions, cfg); return nil }},
		// Arenas grow on the first epoch; time the steady state.
		{"", func() error { m.Fit(samples); return nil }},
		{"core.fit_epoch", func() error { m.Fit(samples); return nil }},
		{"core.enc_forward", func() error { m.Enc.ForwardBatch(m.Batch(regions)); return nil }},
		{"core.sweep", func() error {
			if got := core.PredictPower(d, m, d.Regions); len(got) != len(d.Regions) {
				return fmt.Errorf("dropped regions")
			}
			return nil
		}},
		{"", func() (err error) { q, err = m.Quantize(); return err }},
		{"core.sweep_q", func() error { core.PredictPowerQuantized(q, d.Regions); return nil }},
		{"core.marshal", func() (err error) { blob, err = m.Marshal(meta); return err }},
		{"core.unmarshal", func() error { _, _, err := core.UnmarshalModel(blob); return err }},
	}
	for _, st := range steps {
		if st.name == "" {
			if err := st.fn(); err != nil {
				return err
			}
			continue
		}
		if err := timed(out, rec, st.name, reps, st.fn); err != nil {
			return err
		}
	}

	// Backward consumes the activations the forward pass cached, so
	// each repetition runs a forward first and times only the backward.
	dpool := tensor.New(len(regions), cfg.Hidden)
	for i := range dpool.Data {
		dpool.Data[i] = 1
	}
	for i := 0; i < reps; i++ {
		m.Enc.ForwardBatch(m.Batch(regions))
		id := rec.begin("core.enc_backward", 0, 0)
		m.Enc.BackwardBatch(dpool)
		rec.end(id)
	}
	out["core.enc_backward_ms"] = ms(median(rec.durations("core.enc_backward")))
	return nil
}
