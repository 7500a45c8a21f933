// Package dataset builds the exhaustive measurement dataset the paper's
// training and evaluation rest on: every OpenMP region of the corpus
// executed (on the simulated testbed) at every Table I point — 68 regions
// × 508 (cap, config) combinations per machine. The exhaustive sweep is
// simultaneously the oracle the paper normalizes against and the label
// source for training. A power cap changes only the clock, so the sweep
// simulates each region's loop schedule once per config (omp.Executor.Plan)
// and finishes that plan at each of the four caps (omp.Executor.Finish).
package dataset

import (
	"fmt"
	"sync"

	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/omp"
	"pnptuner/internal/papi"
	"pnptuner/internal/space"
)

// RegionData holds the full measurement grid of one region on one machine.
type RegionData struct {
	Region *kernels.Region
	// Results[capIdx][cfgIdx] is the simulated execution at that point.
	Results [][]omp.Result
	// Counters are the PAPI samples used as dynamic features.
	Counters papi.Counters

	// BestTimeCfg[capIdx] is the config index minimizing time at that cap
	// (the scenario-1 oracle and training label).
	BestTimeCfg []int
	// BestEDPJoint is the joint (cap, config) label minimizing EDP
	// (the scenario-2 oracle and training label).
	BestEDPJoint int
}

// BestTime returns the oracle execution time at capIdx.
func (rd *RegionData) BestTime(capIdx int) float64 {
	return rd.Results[capIdx][rd.BestTimeCfg[capIdx]].TimeSec
}

// DefaultResult returns the default-config execution at capIdx.
func (rd *RegionData) DefaultResult(capIdx int, s *space.Space) omp.Result {
	return rd.Results[capIdx][s.DefaultIndex()]
}

// BestEDP returns the oracle EDP over the joint space.
func (rd *RegionData) BestEDP(s *space.Space) float64 {
	ci, ki := s.SplitJoint(rd.BestEDPJoint)
	return rd.Results[ci][ki].EDP()
}

// Dataset is the exhaustive sweep for one machine.
type Dataset struct {
	Machine *hw.Machine
	Space   *space.Space
	Corpus  *kernels.Corpus
	Regions []*RegionData
	byID    map[string]*RegionData
}

// Region returns the measurement grid for a region ID, or nil.
func (d *Dataset) Region(id string) *RegionData { return d.byID[id] }

var (
	buildMu    sync.Mutex
	buildCache = map[string]*Dataset{}
)

// Build runs the exhaustive sweep for machine m over the built-in corpus.
// Results are cached per machine (the sweep is deterministic).
func Build(m *hw.Machine) (*Dataset, error) {
	buildMu.Lock()
	defer buildMu.Unlock()
	if d, ok := buildCache[m.Name]; ok {
		return d, nil
	}
	corpus, err := kernels.Compile()
	if err != nil {
		return nil, err
	}
	d, err := build(m, corpus)
	if err != nil {
		return nil, err
	}
	buildCache[m.Name] = d
	return d, nil
}

// MustBuild is Build, panicking on error.
func MustBuild(m *hw.Machine) *Dataset {
	d, err := Build(m)
	if err != nil {
		panic(err)
	}
	return d
}

func build(m *hw.Machine, corpus *kernels.Corpus) (*Dataset, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := space.New(m)
	ex := omp.NewExecutor(m)
	d := &Dataset{Machine: m, Space: s, Corpus: corpus, byID: map[string]*RegionData{}}

	// Schedules are cap-independent: plan once per config, finish per cap.
	plans := make([]omp.Plan, s.NumConfigs())
	for _, r := range corpus.Regions {
		for ki, cfg := range s.Configs {
			plans[ki] = ex.Plan(&r.Info.Model, r.Seed, cfg)
		}
		rd := &RegionData{
			Region:      r,
			Results:     make([][]omp.Result, len(s.Caps())),
			BestTimeCfg: make([]int, len(s.Caps())),
			Counters:    papi.Collect(&r.Info.Model, m),
		}
		bestEDP := -1.0
		for ci, capW := range s.Caps() {
			rd.Results[ci] = make([]omp.Result, s.NumConfigs())
			bestT := -1.0
			for ki, plan := range plans {
				res := ex.Finish(plan, capW)
				rd.Results[ci][ki] = res
				if bestT < 0 || res.TimeSec < bestT {
					bestT = res.TimeSec
					rd.BestTimeCfg[ci] = ki
				}
				if edp := res.EDP(); bestEDP < 0 || edp < bestEDP {
					bestEDP = edp
					rd.BestEDPJoint = s.JointIndex(ci, ki)
				}
			}
		}
		d.Regions = append(d.Regions, rd)
		d.byID[r.ID] = rd
	}
	return d, nil
}

// MinibatchesInto slices a sample permutation into contiguous minibatches
// of the given size (the last batch may be short), appending them to
// dst[:0]. It is the iterator the batched trainer walks once per epoch:
// each returned index set becomes one block-diagonal graph batch and one
// optimizer step. The trainer passes the previous epoch's slice back in
// as dst, so re-slicing a fresh permutation allocates nothing in steady
// state. The returned batches alias perm, which the caller likewise
// reuses (see tensor.RNG.PermInto).
func MinibatchesInto(dst [][]int, perm []int, size int) [][]int {
	if size < 1 {
		size = 1
	}
	dst = dst[:0]
	for lo := 0; lo < len(perm); lo += size {
		hi := lo + size
		if hi > len(perm) {
			hi = len(perm)
		}
		dst = append(dst, perm[lo:hi])
	}
	return dst
}

// Fold is one leave-one-out cross-validation split: the regions of one
// application validate a model trained on all other applications.
type Fold struct {
	App   string
	Train []*RegionData
	Val   []*RegionData
}

// LOOCVFolds returns one fold per application, in figure order.
func (d *Dataset) LOOCVFolds() []Fold {
	var folds []Fold
	for _, app := range kernels.AppNames() {
		f := Fold{App: app}
		for _, rd := range d.Regions {
			if rd.Region.App == app {
				f.Val = append(f.Val, rd)
			} else {
				f.Train = append(f.Train, rd)
			}
		}
		if len(f.Val) > 0 {
			folds = append(folds, f)
		}
	}
	return folds
}

// FoldByApp returns the LOOCV fold holding out app, or ok=false if the
// corpus has no such application.
func (d *Dataset) FoldByApp(app string) (Fold, bool) {
	for _, f := range d.LOOCVFolds() {
		if f.App == app {
			return f, true
		}
	}
	return Fold{}, false
}

// FullFold returns the production split: every region trains, nothing is
// held out. This is what a serving model trains on — LOOCV exists to
// evaluate the method, not to ship it.
func (d *Dataset) FullFold() Fold {
	return Fold{App: "", Train: d.Regions}
}

// SanityCheck verifies dataset invariants: oracle labels index minimal
// entries, defaults exist, and every grid cell is populated.
func (d *Dataset) SanityCheck() error {
	for _, rd := range d.Regions {
		if len(rd.Results) != len(d.Space.Caps()) {
			return fmt.Errorf("dataset: %s: missing caps", rd.Region.ID)
		}
		for ci := range rd.Results {
			if len(rd.Results[ci]) != d.Space.NumConfigs() {
				return fmt.Errorf("dataset: %s: missing configs at cap %d", rd.Region.ID, ci)
			}
			best := rd.BestTimeCfg[ci]
			for ki, res := range rd.Results[ci] {
				if res.TimeSec <= 0 {
					return fmt.Errorf("dataset: %s: non-positive time at (%d,%d)", rd.Region.ID, ci, ki)
				}
				if res.TimeSec < rd.Results[ci][best].TimeSec {
					return fmt.Errorf("dataset: %s: label not optimal at cap %d", rd.Region.ID, ci)
				}
			}
		}
		bc, bk := d.Space.SplitJoint(rd.BestEDPJoint)
		bestEDP := rd.Results[bc][bk].EDP()
		for ci := range rd.Results {
			for ki := range rd.Results[ci] {
				if rd.Results[ci][ki].EDP() < bestEDP {
					return fmt.Errorf("dataset: %s: EDP label not optimal", rd.Region.ID)
				}
			}
		}
	}
	return nil
}
