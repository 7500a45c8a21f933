package main

// spec names one metric the way BENCHMARK.json does. Bound is the share
// of the parent's median an end-to-end metric may worsen by; layer
// metrics carry none. Moves is documentation: the end-to-end metric and
// workload a layer metric is predicted to move (README, "interaction
// predictions").
type spec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEndSpecs are the metrics a user of the system sees, the same
// names on every workload. failed_frac is not among them: the driver's
// contract forbids a metric that is normally 0, so failures are
// reported as the attempted/failed counts of every run, and any failed
// op makes the run incorrect.
var endToEndSpecs = []spec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "oracle_frac_geomean", Unit: "ratio", Better: "higher", Bound: 0.06},
}

const (
	onSteady = "op_p50_ms on serve-steady"
	onLarge  = "op_p50_ms, ops_per_s, cpu_ms_per_op on serve-large"
	onTune50 = "op_p50_ms on tune-refresh"
	onTune90 = "op_p90_ms on tune-refresh"
	onTuneBG = "cpu_ms_per_op, peak_rss_mb on tune-refresh"
	onSetup  = "setup_s on every workload"
	onTrain  = "op_p50_ms, ops_per_s on train-loocv; setup_s on the serving workloads"
	onCPU    = "cpu_ms_per_op, peak_rss_mb"
)

// perLayerSpecs are the single-layer metrics of a traced run, named
// after the module they measure. A metric that does not apply to a
// workload (the gate on train-loocv, the job store on serve-steady)
// reads 0 there.
var perLayerSpecs = []spec{
	// The ladder: adjacent-rung differences; they sum to client.rtt_ms.
	{Name: "client.rtt_ms", Unit: "ms", Better: "lower", Moves: onSteady},
	{Name: "gate.self_ms", Unit: "ms", Better: "lower", Moves: onSteady},
	{Name: "http.hop_ms", Unit: "ms", Better: "lower", Moves: onSteady},
	{Name: "registry.server.self_ms", Unit: "ms", Better: "lower", Moves: onSteady + "; " + onLarge},
	{Name: "registry.batcher.wait_ms", Unit: "ms", Better: "lower", Moves: onSteady},
	{Name: "core.predict_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	// Leaf calls on the same request bodies.
	{Name: "api.decode_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	{Name: "programl.validate_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	{Name: "vocab.annotate_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	{Name: "rgcn.compile_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	{Name: "rgcn.merge_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	{Name: "core.encode_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	{Name: "core.heads_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	{Name: "core.predict_q_ms", Unit: "ms", Better: "lower", Moves: "nothing yet: quantized serving is off by default"},
	{Name: "ladder.load_gap_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on every serving workload (queueing under load)"},
	// Server-side counters over the measured phase, from /metrics.
	{Name: "registry.batcher.window_mean", Unit: "count", Better: "higher", Moves: "ops_per_s, op_p90_ms on the closed loops"},
	{Name: "registry.batcher.queue_wait_mean_ms", Unit: "ms", Better: "lower", Moves: onSteady},
	{Name: "registry.batcher.forward_mean_ms", Unit: "ms", Better: "lower", Moves: onLarge},
	{Name: "registry.batcher.shed", Unit: "count", Better: "lower", Moves: "failed ops"},
	{Name: "registry.cache.hit_frac", Unit: "ratio", Better: "higher", Moves: onSteady},
	{Name: "registry.disk_loads", Unit: "count", Better: "lower", Moves: "op_p90_ms"},
	{Name: "gate.hedges", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on serve-steady"},
	{Name: "gate.hedge_wins", Unit: "count", Better: "higher", Moves: "op_p90_ms on serve-steady"},
	{Name: "gate.retries", Unit: "count", Better: "lower", Moves: "failed ops"},
	{Name: "gate.failovers", Unit: "count", Better: "lower", Moves: "failed ops"},
	{Name: "gate.degraded", Unit: "count", Better: "lower", Moves: "failed ops"},
	{Name: "gate.http_mean_ms", Unit: "ms", Better: "lower", Moves: onSteady},
	{Name: "registry.http_mean_ms", Unit: "ms", Better: "lower", Moves: onSteady},
	// The write side (tune-refresh only).
	{Name: "autotune.session_ms.gnn", Unit: "ms", Better: "lower", Moves: onTune50},
	{Name: "autotune.session_ms.hybrid", Unit: "ms", Better: "lower", Moves: onTune50},
	{Name: "autotune.session_ms.bliss", Unit: "ms", Better: "lower", Moves: onTune90},
	{Name: "autotune.session_ms.opentuner", Unit: "ms", Better: "lower", Moves: onTune90},
	{Name: "autotune.evals_per_session", Unit: "count", Better: "lower", Moves: onTune90},
	{Name: "measure.run_us", Unit: "us", Better: "lower", Moves: onTune50},
	{Name: "measure.runs", Unit: "count", Better: "higher", Moves: onTuneBG},
	{Name: "registry.jobs.overhead_ms", Unit: "ms", Better: "lower", Moves: onTune50},
	{Name: "registry.jobs.done", Unit: "count", Better: "higher", Moves: onTune50},
	{Name: "registry.jobs.rejected", Unit: "count", Better: "lower", Moves: "failed ops"},
	{Name: "registry.retrain_ms", Unit: "ms", Better: "lower", Moves: onTuneBG},
	{Name: "registry.refresh.retrains", Unit: "count", Better: "higher", Moves: onTuneBG},
	{Name: "registry.canary.scored", Unit: "count", Better: "higher", Moves: onTuneBG},
	{Name: "registry.canary.promotions", Unit: "count", Better: "higher", Moves: "oracle_frac_geomean on tune-refresh"},
	{Name: "registry.canary.demotions", Unit: "count", Better: "lower", Moves: "oracle_frac_geomean on tune-refresh"},
	// Set-up and training, by direct call.
	{Name: "kernels.compile_ms", Unit: "ms", Better: "lower", Moves: onSetup},
	{Name: "dataset.build_s", Unit: "s", Better: "lower", Moves: onSetup},
	{Name: "core.samples_ms", Unit: "ms", Better: "lower", Moves: onTrain},
	{Name: "core.fit_epoch_ms", Unit: "ms", Better: "lower", Moves: onTrain},
	{Name: "core.enc_forward_ms", Unit: "ms", Better: "lower", Moves: onTrain},
	{Name: "core.enc_backward_ms", Unit: "ms", Better: "lower", Moves: onTrain},
	{Name: "core.sweep_ms", Unit: "ms", Better: "lower", Moves: onTrain},
	{Name: "core.sweep_q_ms", Unit: "ms", Better: "lower", Moves: "nothing yet: quantized serving is off by default"},
	{Name: "core.marshal_ms", Unit: "ms", Better: "lower", Moves: onSetup},
	{Name: "core.unmarshal_ms", Unit: "ms", Better: "lower", Moves: onSetup},
	// The process and the generator.
	{Name: "proc.alloc_kb_per_op", Unit: "KiB", Better: "lower", Moves: onCPU},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Moves: onCPU},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower", Moves: "op_p90_ms"},
	{Name: "gen.late_p90_ms", Unit: "ms", Better: "lower", Moves: "op_p90_ms on serve-steady (generator, not system)"},
	{Name: "gen.final_backlog_ms", Unit: "ms", Better: "lower", Moves: "over 50 ms invalidates an open-loop run"},
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower", Moves: "the tail op_p90_ms cannot see"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "nothing: the measured phase records no spans"},
	{Name: "host.speed", Unit: "ratio", Better: "higher", Moves: "nothing at reference speed; the raw times of the same run scale with it"},
	{Name: "host.frozen_ms", Unit: "ms", Better: "lower", Moves: "nothing at reference speed; raw op_p90_ms on serve-steady"},
}
