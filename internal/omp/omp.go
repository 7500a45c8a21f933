// Package omp simulates an OpenMP runtime executing a parallel region on a
// simulated machine under a RAPL power cap. It is the measurement
// substrate standing in for the paper's physical testbeds: given a
// region's analytic model (from the frontend), a runtime configuration
// (threads × schedule × chunk) and a power cap, it produces execution time
// and energy.
//
// The execution model has three parts:
//
//  1. Rate model: a roofline blend of per-core compute throughput at the
//     cap-constrained frequency and shared DRAM bandwidth filtered through
//     a cache model, with SMT throughput effects.
//  2. Schedule model: STATIC (block or round-robin chunked), DYNAMIC
//     (work queue with per-dispatch overhead) and GUIDED (decaying
//     chunks) assignment over the region's iteration cost profile,
//     computing the makespan exactly for moderate chunk counts and with
//     tight analytic approximations for very large ones. It does not
//     depend on the power cap, so Executor.Plan computes it once per
//     (region, config) and Executor.Finish applies parts 1 and 3 at any
//     cap; Run is Plan followed by Finish.
//  3. Energy model: package energy from the hw power model split into
//     busy/idle core time, plus DRAM access energy.
package omp

import (
	"fmt"
	"math"

	"pnptuner/internal/frontend"
	"pnptuner/internal/hw"
)

// Schedule is the OpenMP loop schedule kind.
type Schedule int

// Loop schedules.
const (
	ScheduleStatic Schedule = iota
	ScheduleDynamic
	ScheduleGuided
)

func (s Schedule) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	}
	return "?"
}

// FromPragma converts a frontend schedule kind (the source-level default
// maps to static, as in libgomp/libomp).
func FromPragma(k frontend.ScheduleKind) Schedule {
	switch k {
	case frontend.SchedDynamic:
		return ScheduleDynamic
	case frontend.SchedGuided:
		return ScheduleGuided
	default:
		return ScheduleStatic
	}
}

// Config is one OpenMP runtime configuration.
type Config struct {
	Threads int
	Sched   Schedule
	// Chunk is the schedule chunk size; 0 means the implementation
	// default (block partition for static, 1 for dynamic/guided).
	Chunk int64
}

func (c Config) String() string {
	if c.Chunk == 0 {
		return fmt.Sprintf("%dt/%s/default", c.Threads, c.Sched)
	}
	return fmt.Sprintf("%dt/%s/%d", c.Threads, c.Sched, c.Chunk)
}

// DefaultConfig returns the typical (default) OpenMP configuration the
// paper measures against: all hardware threads, static schedule,
// compiler-defined (block) chunking.
func DefaultConfig(m *hw.Machine) Config {
	return Config{Threads: m.NumHWThreads(), Sched: ScheduleStatic, Chunk: 0}
}

// Result is one simulated region execution.
type Result struct {
	TimeSec     float64
	PkgEnergyJ  float64
	DRAMEnergyJ float64
	FreqGHz     float64
	// Throttled reports RAPL duty-cycle clamping (cap below the
	// minimum-frequency power draw).
	Throttled bool
	// Utilization is mean busy fraction across team threads.
	Utilization float64
}

// EnergyJ returns total (package + DRAM) energy.
func (r Result) EnergyJ() float64 { return r.PkgEnergyJ + r.DRAMEnergyJ }

// EDP returns the energy-delay product E·T, the paper's fused metric.
func (r Result) EDP() float64 { return r.EnergyJ() * r.TimeSec }

// Executor runs region models on one machine.
type Executor struct {
	M *hw.Machine
	// DRAMEnergyPerByte models DRAM access energy (J/B).
	DRAMEnergyPerByte float64
}

// NewExecutor builds an executor for machine m.
func NewExecutor(m *hw.Machine) *Executor {
	return &Executor{M: m, DRAMEnergyPerByte: 250e-12}
}

// dispatchOverheadUS is the per-chunk dequeue cost (µs at FBase) for
// dynamic and guided schedules.
const dispatchOverheadUS = 0.08

// Plan is the cap-independent part of one region execution: the
// clamped team size and the simulated loop schedule. A RAPL cap changes
// only the clock, so one Plan serves every cap (see Executor.Finish).
type Plan struct {
	model *frontend.RegionModel
	cfg   Config
	// n is the team size, cfg.Threads clamped to [1, NumHWThreads].
	n int
	// makespanIters is the loop makespan in mean-iteration units.
	makespanIters float64
	dispatches    int64
}

// Plan simulates the region's loop schedule under cfg. regionSeed keys
// the deterministic iteration-cost noise of ImbRandom regions so
// repeated runs of the same (region, config) agree while different
// regions diverge.
func (ex *Executor) Plan(model *frontend.RegionModel, regionSeed uint64, cfg Config) Plan {
	n := cfg.Threads
	if n < 1 {
		n = 1
	}
	if n > ex.M.NumHWThreads() {
		n = ex.M.NumHWThreads()
	}
	prof := newProfile(model, regionSeed)
	makespanIters, nDispatch := schedule(cfg, model.Trips, n, prof)
	return Plan{model: model, cfg: cfg, n: n, makespanIters: makespanIters, dispatches: nDispatch}
}

// Run executes the region under cfg and a package power cap of capW watts
// and returns time and energy; it is Plan followed by Finish.
func (ex *Executor) Run(model *frontend.RegionModel, regionSeed uint64, cfg Config, capW float64) Result {
	return ex.Finish(ex.Plan(model, regionSeed, cfg), capW)
}

// Finish runs a planned execution under a package power cap of capW
// watts and returns time and energy.
func (ex *Executor) Finish(p Plan, capW float64) Result {
	m := ex.M
	model, cfg, n := p.model, p.cfg, p.n
	f, throttle := m.FreqAtCap(n, capW)

	// --- Rate model -----------------------------------------------------
	cores := n
	if cores > m.NumCores() {
		cores = m.NumCores()
	}
	smtWays := float64(n) / float64(cores)

	// Per-iteration compute cycles on one core.
	cycles := model.FlopsPerIter/m.FlopsPerCycle +
		model.IntOpsPerIter/m.IntOpsPerCycle +
		(model.LoadsPerIter+model.StoresPerIter)/m.LoadsPerCycle
	tc := cycles / (f * 1e9) // seconds, one thread owning a core

	// DRAM traffic per iteration after cache filtering. Fine-grained
	// chunking sacrifices spatial locality: a thread working iterations
	// {k, k+n·c, ...} loses the streaming/prefetch benefit contiguous
	// ranges enjoy, so the stride-1 discount scales with chunk contiguity.
	contig := cfg.Chunk
	if contig <= 0 {
		if cfg.Sched == ScheduleStatic {
			contig = model.Trips / int64(n)
		} else {
			contig = 1
		}
	}
	locality := float64(contig) / 32
	if locality > 1 {
		locality = 1
	}
	dramBytes := model.BytesPerIter() * ex.dramFactor(model, locality)
	// Uncore frequency scales with the core clock under RAPL, so the
	// sustained bandwidth degrades when the cap pulls frequency below
	// base. This is what makes the best thread count cap-dependent for
	// memory-bound regions: large teams force a low frequency, which
	// starves the memory system they depend on.
	bwScale := 0.45 + 0.55*math.Min(1, f/m.FBase)
	perThreadBW := math.Min(m.MemBWSingleGBs, m.MemBWGBs*bwScale/float64(n)) * 1e9
	tm := 0.0
	if dramBytes > 0 {
		tm = dramBytes / perThreadBW
	}

	// SMT: siblings share a core. Memory-stalled threads overlap well
	// (SMTBoost); compute-bound threads serialize.
	if smtWays > 1 {
		memFrac := 0.0
		if tc+tm > 0 {
			memFrac = tm / (tc + tm)
		}
		boost := 1 + (m.SMTBoost-1)*memFrac
		tc = tc * smtWays / boost
	}

	// Roofline: compute and memory overlap; the slower stream dominates.
	tauIter := math.Max(tc, tm)
	if tauIter <= 0 {
		tauIter = 1e-12
	}
	tauIter /= throttle

	// --- Schedule model (planned once, cap-independent) -------------------
	makespanIters := p.makespanIters
	dispatchCost := float64(p.dispatches) * dispatchOverheadUS * 1e-6 * (m.FBase / f) / throttle
	// Dispatches contend on one queue lock: mild penalty for big teams.
	if cfg.Sched != ScheduleStatic && n > 8 {
		dispatchCost *= 1 + 0.02*float64(n-8)
	}
	loopTime := makespanIters*tauIter + dispatchCost

	// --- Fork/join/reduction overheads ------------------------------------
	forkJoin := (m.ForkBaseUS + m.ForkPerThread*float64(n)) * 1e-6 * (m.FBase / f) / throttle
	redCost := 0.0
	if model.HasReduction {
		redCost = 0.25e-6 * math.Log2(float64(n)+1) * (m.FBase / f) / throttle
	}
	total := loopTime + forkJoin + redCost

	// --- Energy model -----------------------------------------------------
	// Mean utilization: total weighted work over n·makespan.
	util := 1.0
	if makespanIters > 0 {
		util = float64(model.Trips) / (float64(n) * makespanIters)
		if util > 1 {
			util = 1
		}
	}
	cores, activeSockets := activeCoresSockets(m, n)
	idleSockets := m.Sockets - activeSockets
	idleCores := m.NumCores() - cores
	staticP := float64(activeSockets)*m.Uncore + float64(idleSockets)*m.UncoreIdle +
		float64(cores)*m.CoreStatic + float64(idleCores)*m.CoreIdle
	dynP := float64(cores) * m.DynCoeff * f * f * f * util * throttle
	pkgE := total * (staticP + dynP)
	dramE := dramBytes * float64(model.Trips) * ex.DRAMEnergyPerByte

	return Result{
		TimeSec:     total,
		PkgEnergyJ:  pkgE,
		DRAMEnergyJ: dramE,
		FreqGHz:     f,
		Throttled:   throttle < 1,
		Utilization: util,
	}
}

// activeCoresSockets mirrors hw.Machine.activeTopology (package-private
// there) for the energy split.
func activeCoresSockets(m *hw.Machine, threads int) (cores, sockets int) {
	cores = threads
	if cores > m.NumCores() {
		cores = m.NumCores()
	}
	sockets = m.Sockets
	if cores <= m.CoresPerSocket/2 {
		sockets = 1
	}
	return cores, sockets
}

// dramFactor converts raw element traffic into DRAM-visible traffic: a
// working-set-driven base miss factor, reduced by streaming prefetch
// (scaled by the schedule's chunk contiguity in [0,1]), inflated by
// random gathers (cache-line waste).
func (ex *Executor) dramFactor(model *frontend.RegionModel, locality float64) float64 {
	ws := float64(model.WorkingSet)
	l2 := float64(ex.M.L2TotalBytes())
	l3 := float64(ex.M.L3TotalBytes())
	var base float64
	switch {
	case ws <= l2:
		base = 0.02
	case ws <= l3:
		base = 0.02 + 0.14*(ws-l2)/(l3-l2)
	default:
		grow := math.Log(ws/l3) / math.Log(32)
		if grow > 1 {
			grow = 1
		}
		base = 0.16 + 0.84*grow
	}
	seqAdj := 1 - 0.35*model.SeqFrac*locality
	gatherAdj := 1 + 2.5*model.GatherFrac
	fac := base * seqAdj * gatherAdj
	if fac < 0.01 {
		fac = 0.01
	}
	if fac > 4 {
		fac = 4
	}
	return fac
}

// --- Iteration cost profile -------------------------------------------

// noiseBlocks is the resolution of the correlated cost-noise field for
// ImbRandom regions: the iteration space divides into this many blocks,
// each with its own lognormal cost factor. Correlated (rather than
// per-iteration iid) noise is essential: Monte Carlo workloads have runs
// of expensive particles, so imbalance survives block partitioning — the
// property that makes dynamic/guided scheduling matter for them.
const noiseBlocks = 256

// profile evaluates the region's relative iteration cost, combining the
// piecewise-linear shape from static analysis with a deterministic
// correlated noise field for ImbRandom regions.
type profile struct {
	pts    [5]float64
	cum    [5]float64 // normalized cumulative integral at knots 0, .25, .5, .75, 1
	rawTot float64    // unnormalized integral over [0,1]
	cv     float64
	seed   uint64
	// noisyCum[i] is the cumulative noisy work over blocks [0, i); only
	// built when cv > 0. Values are in fractions of total mean work.
	noisyCum []float64
	maxBlock float64 // largest single-block relative cost
}

func newProfile(model *frontend.RegionModel, seed uint64) *profile {
	p := &profile{pts: model.CostProfile, seed: seed}
	if model.Imbalance == frontend.ImbRandom {
		p.cv = model.CV
	}
	// Trapezoid cumulative integral of the piecewise-linear shape.
	for i := 1; i < 5; i++ {
		p.cum[i] = p.cum[i-1] + 0.25*(p.pts[i-1]+p.pts[i])/2
	}
	p.rawTot = p.cum[4]
	if p.rawTot <= 0 {
		p.rawTot = 1
	}
	// Normalize so cum(1) == 1 exactly.
	inv := 1 / p.rawTot
	for i := range p.cum {
		p.cum[i] *= inv
	}
	if p.cv > 0 {
		p.noisyCum = make([]float64, noiseBlocks+1)
		p.maxBlock = 0
		for i := 0; i < noiseBlocks; i++ {
			a := float64(i) / noiseBlocks
			b := float64(i+1) / noiseBlocks
			base := p.smoothCumAt(b) - p.smoothCumAt(a)
			z := normHash(p.seed, uint64(i))
			factor := math.Exp(p.cv*z - p.cv*p.cv/2)
			w := base * factor
			p.noisyCum[i+1] = p.noisyCum[i] + w
			if rel := w * noiseBlocks; rel > p.maxBlock {
				p.maxBlock = rel
			}
		}
	}
	return p
}

// smoothCumAt returns the noise-free ∫₀ˣ w(u)du for x in [0,1],
// normalized so the full integral is 1.
func (p *profile) smoothCumAt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	seg := int(x * 4)
	if seg > 3 {
		seg = 3
	}
	u0 := float64(seg) * 0.25
	t := (x - u0) / 0.25
	w0, w1 := p.pts[seg], p.pts[seg+1]
	segInt := 0.25 * (w0*t + (w1-w0)*t*t/2)
	return p.cum[seg] + segInt/p.rawTot
}

// cumAt returns the (noisy, for ImbRandom) cumulative work fraction.
func (p *profile) cumAt(x float64) float64 {
	if p.noisyCum == nil {
		return p.smoothCumAt(x)
	}
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return p.noisyCum[noiseBlocks]
	}
	pos := x * noiseBlocks
	blk := int(pos)
	frac := pos - float64(blk)
	return p.noisyCum[blk] + frac*(p.noisyCum[blk+1]-p.noisyCum[blk])
}

// chunkWork returns the work of iterations [lo, hi) in mean-iteration
// units.
func (p *profile) chunkWork(lo, hi, trips int64) float64 {
	a := float64(lo) / float64(trips)
	b := float64(hi) / float64(trips)
	w := (p.cumAt(b) - p.cumAt(a)) * float64(trips)
	if w < 0 {
		w = 0
	}
	return w
}

// normHash maps (seed, idx) to an approximately standard-normal value,
// deterministically (sum of 4 uniforms, Irwin–Hall shifted and scaled).
func normHash(seed, idx uint64) float64 {
	x := seed ^ (idx * 0x9e3779b97f4a7c15)
	s := 0.0
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s += float64(z>>11) / (1 << 53)
	}
	// Irwin–Hall(4): mean 2, var 4/12 → std 0.5774.
	return (s - 2) / 0.57735
}

// --- Schedulers ----------------------------------------------------------

// exactSimLimit bounds the chunk count for exact discrete simulation;
// beyond it the analytic approximations take over.
const exactSimLimit = 16384

// schedule computes the loop makespan in mean-iteration units and the
// number of queue dispatch operations.
func schedule(cfg Config, trips int64, n int, prof *profile) (makespan float64, dispatches int64) {
	if n < 1 {
		n = 1
	}
	switch cfg.Sched {
	case ScheduleStatic:
		return staticMakespan(cfg.Chunk, trips, n, prof), 0
	case ScheduleDynamic:
		chunk := cfg.Chunk
		if chunk <= 0 {
			chunk = 1
		}
		return dynamicMakespan(chunk, trips, n, prof)
	case ScheduleGuided:
		minChunk := cfg.Chunk
		if minChunk <= 0 {
			minChunk = 1
		}
		return guidedMakespan(minChunk, trips, n, prof)
	}
	return float64(trips) / float64(n), 0
}

// staticMakespan handles both block partition (chunk 0) and round-robin
// chunked static scheduling.
func staticMakespan(chunk, trips int64, n int, prof *profile) float64 {
	if n == 1 {
		return prof.chunkWork(0, trips, trips)
	}
	if chunk <= 0 {
		// Block partition: thread k gets one contiguous range.
		per := (trips + int64(n) - 1) / int64(n)
		maxW := 0.0
		for k := int64(0); k < int64(n); k++ {
			lo := k * per
			if lo >= trips {
				break
			}
			hi := lo + per
			if hi > trips {
				hi = trips
			}
			w := prof.chunkWork(lo, hi, trips)
			if w > maxW {
				maxW = w
			}
		}
		return maxW
	}
	nChunks := (trips + chunk - 1) / chunk
	if nChunks <= exactSimLimit {
		loads := make([]float64, n)
		for j := int64(0); j < nChunks; j++ {
			lo := j * chunk
			hi := lo + chunk
			if hi > trips {
				hi = trips
			}
			loads[int(j)%n] += prof.chunkWork(lo, hi, trips)
		}
		return maxOf(loads)
	}
	// Very many chunks: round-robin interleaving samples both the shape
	// profile and the correlated noise field uniformly, so the imbalance
	// vanishes up to one-chunk granularity.
	mean := prof.chunkWork(0, trips, trips) / float64(n)
	return mean * (1 + float64(chunk)/float64(trips))
}

// addToMin adds w to the smallest entry of the min-heap h of thread
// available-times and sifts it down: the earliest-free thread takes the
// next chunk. It is the multiset step of container/heap's Pop then
// Push(t+w) without the interface boxing. An all-zero slice is a valid
// heap, so callers start from make([]float64, n).
func addToMin(h []float64, w float64) {
	h[0] += w
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r] < h[j] {
			j = r
		}
		if !(h[j] < h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// dynamicMakespan simulates the work queue exactly for moderate chunk
// counts and approximates it analytically beyond that.
func dynamicMakespan(chunk, trips int64, n int, prof *profile) (float64, int64) {
	nChunks := (trips + chunk - 1) / chunk
	if n == 1 {
		return prof.chunkWork(0, trips, trips), nChunks
	}
	if nChunks <= exactSimLimit {
		h := make([]float64, n)
		for j := int64(0); j < nChunks; j++ {
			lo := j * chunk
			hi := lo + chunk
			if hi > trips {
				hi = trips
			}
			addToMin(h, prof.chunkWork(lo, hi, trips))
		}
		return maxOf(h), nChunks
	}
	// Many tiny chunks: dynamic balances almost perfectly; the tail adds
	// at most one chunk of the costliest region (shape or noise block).
	mean := prof.chunkWork(0, trips, trips) / float64(n)
	peak := maxProfilePoint(prof)
	if prof.maxBlock > peak {
		peak = prof.maxBlock
	}
	return mean + float64(chunk)*peak, nChunks
}

// guidedMakespan simulates guided self-scheduling: each dispatch takes
// ceil(remaining/(2n)) iterations, floored at the minimum chunk.
func guidedMakespan(minChunk, trips int64, n int, prof *profile) (float64, int64) {
	if n == 1 {
		return prof.chunkWork(0, trips, trips), 1
	}
	h := make([]float64, n)
	var lo, dispatches int64
	for lo < trips {
		remaining := trips - lo
		c := (remaining + int64(2*n) - 1) / int64(2*n)
		if c < minChunk {
			c = minChunk
		}
		hi := lo + c
		if hi > trips {
			hi = trips
		}
		addToMin(h, prof.chunkWork(lo, hi, trips))
		lo = hi
		dispatches++
		if dispatches > 4*exactSimLimit {
			// Pathological minChunk; fall back to the dynamic approximation.
			rest, d2 := dynamicMakespan(minChunk, trips-lo, n, prof)
			return maxOf(h) + rest, dispatches + d2
		}
	}
	return maxOf(h), dispatches
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func maxProfilePoint(p *profile) float64 {
	m := p.pts[0]
	for _, v := range p.pts[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
