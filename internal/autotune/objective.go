package autotune

import (
	"pnptuner/internal/dataset"
	"pnptuner/internal/omp"
	"pnptuner/internal/space"
)

// Objective is a tuning goal over one machine's search space: it defines
// the candidate index space, the true measured value of a candidate on a
// region's measurement grid (lower is better), and the two candidate
// encodings the strategies need — surrogate feature vectors (BLISS-style
// model-guided search) and a lattice shape (OpenTuner-style structured
// search). The same objective values feed training labels (soft
// near-optimal targets), engine evaluators, and figure reporting.
type Objective interface {
	// Name is the objective's wire/CLI name.
	Name() string
	// NumCandidates is the size of the candidate index space.
	NumCandidates(s *space.Space) int
	// Value is the true (noise-free) objective of candidate cand on rd.
	Value(rd *dataset.RegionData, s *space.Space, cand int) float64
	// Features is a normalized numeric encoding of cand for surrogate
	// models.
	Features(s *space.Space, cand int) []float64
	// Dims is the lattice shape of the candidate space for
	// structure-aware strategies; Decode maps a lattice coordinate back
	// to a candidate index. The lattice may be a subset of the index
	// space (the per-cap grid excludes the trailing default config).
	Dims(s *space.Space) []int
	Decode(s *space.Space, p []int) int
	// NoiseKey identifies cand's simulated execution for the replay
	// evaluator's per-measurement noise stream.
	NoiseKey(cand int) uint64
}

// Problem describes one tuning task to a strategy: the objective, the
// machine search space, and the resources the engine grants. Strategies
// size themselves from it (bootstrap fractions, lattice dims) but learn
// measured values only through Observe.
type Problem struct {
	Obj    Objective
	Space  *space.Space
	Budget int
	// Seed drives every RNG stream of the session — strategy decisions
	// and replay measurement noise alike.
	Seed uint64
}

// N returns the candidate count of the problem's objective.
func (p Problem) N() int { return p.Obj.NumCandidates(p.Space) }

// Task is a problem bound to a region, which is how figure drivers and
// serving construct per-region strategies (prediction lookups key on the
// region ID).
type Task struct {
	Problem
	RegionID string
}

// TimeUnderCap is scenario 1: minimize execution time over the per-cap
// configuration space at power cap index Cap.
type TimeUnderCap struct {
	Cap int
}

func (o TimeUnderCap) Name() string                     { return "time" }
func (o TimeUnderCap) NumCandidates(s *space.Space) int { return s.NumConfigs() }

func (o TimeUnderCap) Value(rd *dataset.RegionData, s *space.Space, cand int) float64 {
	return rd.Results[o.Cap][cand].TimeSec
}

func (o TimeUnderCap) Features(s *space.Space, cand int) []float64 {
	return s.ConfigFeatures(cand)
}

func (o TimeUnderCap) Dims(s *space.Space) []int {
	return []int{len(s.M.ThreadCounts), len(space.Schedules), len(space.Chunks)}
}

func (o TimeUnderCap) Decode(s *space.Space, p []int) int {
	return (p[0]*len(space.Schedules)+p[1])*len(space.Chunks) + p[2]
}

func (o TimeUnderCap) NoiseKey(cand int) uint64 {
	return uint64(o.Cap)*1000 + uint64(cand)
}

// jointObjective factors what EDP and Energy share: candidates are joint
// (cap × config) labels.
type jointObjective struct{}

func (jointObjective) NumCandidates(s *space.Space) int { return s.NumJoint() }

func (jointObjective) Features(s *space.Space, cand int) []float64 {
	ci, ki := s.SplitJoint(cand)
	f := s.ConfigFeatures(ki)
	return append(append(make([]float64, 0, len(f)+1), f...), s.Caps()[ci]/s.M.TDP)
}

func (jointObjective) Dims(s *space.Space) []int {
	return []int{len(s.Caps()), len(s.M.ThreadCounts), len(space.Schedules), len(space.Chunks)}
}

func (jointObjective) Decode(s *space.Space, p []int) int {
	cfg := (p[1]*len(space.Schedules)+p[2])*len(space.Chunks) + p[3]
	return s.JointIndex(p[0], cfg)
}

func (jointObjective) NoiseKey(cand int) uint64 { return uint64(cand) }

// EDP is scenario 2: minimize the energy-delay product over the joint
// (power cap × configuration) space.
type EDP struct{ jointObjective }

func (EDP) Name() string { return "edp" }

func (EDP) Value(rd *dataset.RegionData, s *space.Space, cand int) float64 {
	ci, ki := s.SplitJoint(cand)
	return rd.Results[ci][ki].EDP()
}

// Energy minimizes total energy over the joint space — a constraint-free
// green-computing objective the dataset has no precomputed label for
// (Oracle scans the grid on demand).
type Energy struct{ jointObjective }

func (Energy) Name() string { return "energy" }

func (Energy) Value(rd *dataset.RegionData, s *space.Space, cand int) float64 {
	ci, ki := s.SplitJoint(cand)
	return rd.Results[ci][ki].EnergyJ()
}

// PickAt decodes candidate cand of obj into its power cap and OpenMP
// configuration: the objective's own cap for time under a cap, the joint
// label's otherwise.
func PickAt(s *space.Space, obj Objective, cand int) (capW float64, cfg omp.Config) {
	if o, ok := obj.(TimeUnderCap); ok {
		return s.Caps()[o.Cap], s.Configs[cand]
	}
	return s.At(cand)
}

// Oracle scans the full grid and returns the candidate minimizing obj on
// rd, with its value — the exhaustive-search reference every figure
// normalizes against. For TimeUnderCap and EDP it reproduces the
// dataset's precomputed labels; for objectives without labels (Energy)
// it is the label.
func Oracle(rd *dataset.RegionData, s *space.Space, obj Objective) (best int, value float64) {
	n := obj.NumCandidates(s)
	value = obj.Value(rd, s, 0)
	for c := 1; c < n; c++ {
		if v := obj.Value(rd, s, c); v < value {
			best, value = c, v
		}
	}
	return best, value
}
