// Package measure closes the measure→learn loop: it executes tuning
// candidates on the simulated hardware instead of replaying the
// exhaustive dataset grid. A Runner owns one region's measurement
// session — an omp execution model driven under an hw RAPL power cap,
// energy read back through the wrapping MSR counter, PAPI counters
// collected once per session — and records every (config, runtime,
// energy) sample it takes. Bound per-objective evaluators satisfy
// autotune.Evaluator, so any search strategy runs unchanged on real
// executions; completed sessions feed their samples back into
// dataset region data (dataset.SampleLog / Dataset.WithSamples) for
// serving-side incremental retraining.
package measure

import (
	"context"
	"math"
	"sync"

	"pnptuner/internal/autotune"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/omp"
	"pnptuner/internal/space"
)

// NoiseMix is the measurement loop's noise-stream constant: run-to-run
// noise of real executions draws from its own stream, independent of the
// replay evaluators' streams at the same seed.
const NoiseMix uint64 = 0xa0761d6478bd642f

// DefaultNoiseSD is the relative run-to-run spread of one real
// execution — smaller than the baselines' replay noise (0.15–0.20)
// because a dedicated measurement run pins frequency and isolates the
// region, but not zero: real hardware never repeats exactly.
const DefaultNoiseSD = 0.05

// Sample is one recorded execution.
type Sample struct {
	// CapIdx / CfgIdx locate the measured cell on the dataset grid.
	CapIdx int
	CfgIdx int
	// CapW is the programmed package power cap in watts.
	CapW float64
	// ConfigIndex is the candidate index in the objective's space that
	// was measured (per-cap for time, joint for edp/energy).
	ConfigIndex int
	// Config is the human-readable runtime configuration.
	Config string
	// Result is the observed execution (noise included).
	Result omp.Result
	// EnergyJ is the energy as read back from the RAPL counter — the
	// delta of two wrapping 32-bit readings, quantized to
	// hw.EnergyUnitJ, the way a PAPI RAPL component reports it.
	EnergyJ float64
	// Value is the objective value the engine observed for this run.
	Value float64
}

// Runner owns one region's measurement session: the RAPL interface it
// programs, the executor it runs on, and the samples it records. One
// Runner serves every head of a tune session — per-objective bound
// evaluators share its RAPL state, run counter, and sample log. Safe
// for concurrent use, though engine sessions measure sequentially.
type Runner struct {
	m      *hw.Machine
	region *kernels.Region
	s      *space.Space
	rapl   *hw.RAPL
	exec   *omp.Executor
	seed   uint64
	// NoiseSD is the relative run-to-run measurement noise
	// (DefaultNoiseSD unless overridden; 0 = perfectly repeatable runs).
	noiseSD float64

	mu       sync.Mutex
	ctx      context.Context
	runs     int
	samples  []Sample
	onSample func(Sample)
}

// OnSample installs a tap called (outside the runner lock) after every
// recorded execution — telemetry counters, never measurement logic.
func (r *Runner) OnSample(fn func(Sample)) {
	r.mu.Lock()
	r.onSample = fn
	r.mu.Unlock()
}

// NewRunner builds a measurement session for one region on machine m.
// seed decorrelates the run-to-run noise of independent sessions;
// noiseSD < 0 selects DefaultNoiseSD.
func NewRunner(m *hw.Machine, region *kernels.Region, s *space.Space, seed uint64, noiseSD float64) *Runner {
	if noiseSD < 0 {
		noiseSD = DefaultNoiseSD
	}
	return &Runner{
		m:       m,
		region:  region,
		s:       s,
		rapl:    hw.NewRAPL(m),
		exec:    omp.NewExecutor(m),
		seed:    seed,
		noiseSD: noiseSD,
	}
}

// Bind attaches a request context to the session: once ctx is done,
// further measurements return +Inf without executing anything — the
// deadline budget propagates into the engine loop itself, so an expired
// request stops consuming machine time mid-session instead of finishing
// its measurement budget into a response nobody is waiting for. Samples
// already taken stay recorded (cancelled sessions' real runs are still
// real data for refresh retraining). A nil ctx unbinds.
func (r *Runner) Bind(ctx context.Context) {
	r.mu.Lock()
	r.ctx = ctx
	r.mu.Unlock()
}

// Evaluator binds the runner to one objective, satisfying
// autotune.Evaluator: Measure decodes the candidate into a (cap, config)
// point, programs the cap, executes, and records the sample. Install it
// as an autotune.Entry's Eval hook to run any strategy on real
// executions.
func (r *Runner) Evaluator(obj autotune.Objective) autotune.Evaluator {
	return boundEvaluator{r: r, obj: obj}
}

type boundEvaluator struct {
	r   *Runner
	obj autotune.Objective
}

func (b boundEvaluator) Measure(config int) float64 { return b.r.measure(b.obj, config) }

// measure executes one candidate under its power cap and returns the
// observed objective value (lower is better).
func (r *Runner) measure(obj autotune.Objective, config int) float64 {
	ci, ki := r.decode(obj, config)
	capW := r.s.Caps()[ci]
	cfg := r.s.Configs[ki]

	r.mu.Lock()
	if r.ctx != nil && r.ctx.Err() != nil {
		r.mu.Unlock()
		// +Inf is the engine convention for "unobservable": no strategy
		// will pick it as the incumbent, and the run never executed.
		return math.Inf(1)
	}

	r.rapl.SetPowerLimit(capW)
	res := r.exec.Run(&r.region.Info.Model, r.region.Seed, cfg, r.rapl.PowerLimit())
	r.runs++
	if r.noiseSD > 0 {
		// One lognormal factor per run scales time and energy together
		// (frequency jitter moves both), keyed by candidate AND run
		// ordinal so re-measuring a config draws fresh noise — yet the
		// whole stream is a pure function of (seed, run sequence).
		f := autotune.Noise(r.seed, NoiseMix, runKey(obj.NoiseKey(config), r.runs), r.noiseSD)
		res.TimeSec *= f
		res.PkgEnergyJ *= f
		res.DRAMEnergyJ *= f
	}

	// Read energy the way real tooling does: two snapshots of the
	// wrapping 32-bit counter around the run, delta in hardware units.
	before := r.rapl.EnergyStatus()
	r.rapl.AccumulateEnergy(res.EnergyJ())
	energyJ := hw.EnergyDelta(before, r.rapl.EnergyStatus())

	var value float64
	switch obj.(type) {
	case autotune.TimeUnderCap:
		value = res.TimeSec
	case autotune.Energy:
		value = energyJ
	default: // EDP and other joint objectives
		value = energyJ * res.TimeSec
	}

	sample := Sample{
		CapIdx:      ci,
		CfgIdx:      ki,
		CapW:        capW,
		ConfigIndex: config,
		Config:      cfg.String(),
		Result:      res,
		EnergyJ:     energyJ,
		Value:       value,
	}
	r.samples = append(r.samples, sample)
	fn := r.onSample
	r.mu.Unlock()
	if fn != nil {
		fn(sample)
	}
	return value
}

// decode maps a candidate index to its grid cell: per-cap candidates for
// TimeUnderCap, joint (cap × config) labels otherwise.
func (r *Runner) decode(obj autotune.Objective, config int) (ci, ki int) {
	if o, ok := obj.(autotune.TimeUnderCap); ok {
		return o.Cap, config
	}
	return r.s.SplitJoint(config)
}

// runKey folds the run ordinal into the candidate's noise key. Space
// keys fit comfortably in 32 bits (at most caps×configs ≈ 5·10² joint
// labels), so the ordinal occupies the high word.
func runKey(key uint64, run int) uint64 {
	return key | uint64(run)<<32
}

// Runs returns how many executions the session has taken.
func (r *Runner) Runs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// Samples returns a copy of every recorded sample, in execution order.
func (r *Runner) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// DatasetSamples converts the session's samples into the dataset
// feedback form, tagged with the region they measured — what completed
// sessions append to a dataset.SampleLog.
func (r *Runner) DatasetSamples() []dataset.MeasuredSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]dataset.MeasuredSample, len(r.samples))
	for i, s := range r.samples {
		out[i] = dataset.MeasuredSample{
			RegionID: r.region.ID,
			CapIdx:   s.CapIdx,
			CfgIdx:   s.CfgIdx,
			Result:   s.Result,
		}
	}
	return out
}
