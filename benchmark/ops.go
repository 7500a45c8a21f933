package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/metrics"
	"pnptuner/internal/programl"
	"pnptuner/internal/registry"
	"pnptuner/internal/space"
)

// region is one graph a serving workload sends, with the ground truth
// its answers are scored against.
type region struct {
	id    string
	graph *programl.Graph // token-annotated, as the server sees it after decode
	body  []byte          // graph JSON, as sent
	truth map[string]*dataset.RegionData
}

// corpusRegions wraps every corpus region; truth is the machine's
// exhaustive dataset.
func corpusRegions(f *fleet) ([]region, error) {
	var out []region
	for _, r := range f.corpus.Regions {
		body, err := r.Graph.MarshalJSON()
		if err != nil {
			return nil, err
		}
		truth := map[string]*dataset.RegionData{}
		for name, d := range f.datasets {
			truth[name] = d.Region(r.ID)
		}
		out = append(out, region{id: r.ID, graph: r.Graph, body: body, truth: truth})
	}
	return out, nil
}

func predictRequest(k registry.Key, graph []byte) api.PredictRequest {
	return api.PredictRequest{Machine: k.Machine, Objective: k.Objective, Scenario: k.Scenario, Graph: api.RawObject(graph)}
}

// quality is the paper's fraction-of-oracle for one answer: for the
// time objective the geomean over caps of best time ÷ picked config's
// time, for EDP best EDP ÷ the picked joint point's EDP. picks are
// head outputs (one per cap, or one joint index). It returns 0 for
// picks that are out of range or of the wrong length.
func quality(rd *dataset.RegionData, sp *space.Space, objective string, picks []int) float64 {
	if objective == registry.ObjectiveEDP {
		if len(picks) != 1 || picks[0] < 0 || picks[0] >= sp.NumJoint() {
			return 0
		}
		ci, ki := sp.SplitJoint(picks[0])
		return rd.BestEDP(sp) / rd.Results[ci][ki].EDP()
	}
	if len(picks) != len(sp.Caps()) {
		return 0
	}
	fracs := make([]float64, len(picks))
	for ci, p := range picks {
		if p < 0 || p >= sp.NumConfigs() {
			return 0
		}
		fracs[ci] = rd.BestTime(ci) / rd.Results[ci][p].TimeSec
	}
	return metrics.GeoMean(fracs)
}

// env is everything an op needs: the fleet, the workload's regions,
// and for serve-* the exact picks every (region, key) must return.
type env struct {
	f       *fleet
	gate    *client.Client
	regions []region
	spaces  map[string]*space.Space
	// expect[region][key] are the picks core computes directly from the
	// stored blob, float64 and unbatched; nil when the served model may
	// change under the run (tune-refresh).
	expect [][][]int
}

func newEnv(f *fleet, regions []region) *env {
	e := &env{f: f, regions: regions, spaces: map[string]*space.Space{}}
	if f.gate != nil {
		e.gate = f.client(f.gateURL)
	}
	for name, d := range f.datasets {
		e.spaces[name] = d.Space
	}
	return e
}

// computeExpect fills e.expect by restoring each stored blob and
// predicting every region alone through core.
func (e *env) computeExpect() error {
	e.expect = make([][][]int, len(e.regions))
	for ki, k := range e.f.keys {
		m, _, err := core.UnmarshalModel(e.f.blobs[k])
		if err != nil {
			return err
		}
		for ri, r := range e.regions {
			if ki == 0 {
				e.expect[ri] = make([][]int, len(e.f.keys))
			}
			e.expect[ri][ki] = m.PredictGraphs([]*programl.Graph{r.graph}, nil)[0]
		}
	}
	return nil
}

// do runs one serving op through the gate and returns its quality. Any
// error — transport, API, shed, degraded answer, malformed or wrong
// picks — makes the op a failed op.
func (e *env) do(ctx context.Context, o op) (float64, error) {
	k, r := e.f.keys[o.key], e.regions[o.region]
	sp, rd := e.spaces[k.Machine], r.truth[k.Machine]
	if o.kind == opPredict {
		resp, err := e.gate.Predict(ctx, predictRequest(k, r.body))
		if err != nil {
			return 0, err
		}
		if resp.Degraded {
			return 0, fmt.Errorf("degraded answer (%s)", resp.DegradedSource)
		}
		picks := pickIndices(resp.Picks)
		if e.expect != nil && !equalInts(picks, e.expect[o.region][o.key]) {
			return 0, fmt.Errorf("%s on %s: picks %v, core says %v", r.id, k, picks, e.expect[o.region][o.key])
		}
		return checkedQuality(rd, sp, k.Objective, picks)
	}

	req := api.TuneRequest{
		Machine: k.Machine, Objective: k.Objective, Scenario: k.Scenario,
		Strategy: o.strategy, RegionID: r.id, Budget: tuneBudget, Seed: o.seed,
	}
	if o.measured {
		req.MeasureBudget = tuneMeasure
	}
	var resp *api.TuneResponse
	if o.kind == opTuneSync {
		var err error
		if resp, err = e.gate.Tune(ctx, req); err != nil {
			return 0, err
		}
	} else {
		job, err := e.gate.TuneAsync(ctx, req)
		if err != nil {
			return 0, err
		}
		if job, err = e.gate.Wait(ctx, job.ID, time.Millisecond); err != nil {
			return 0, err
		}
		if job.Status != api.JobDone || job.Result == nil {
			return 0, fmt.Errorf("job %s ended %s: %v", job.ID, job.Status, job.Error)
		}
		resp = job.Result
	}
	picks := make([]int, len(resp.Picks))
	for i, p := range resp.Picks {
		if !(p.OracleFrac > 0 && p.OracleFrac <= 1) {
			return 0, fmt.Errorf("tune %s: oracle_frac %v outside (0, 1]", o.strategy, p.OracleFrac)
		}
		if p.Evals > resp.Budget {
			return 0, fmt.Errorf("tune %s: %d evals over budget %d", o.strategy, p.Evals, resp.Budget)
		}
		picks[i] = p.ConfigIndex
	}
	return checkedQuality(rd, sp, k.Objective, picks)
}

func checkedQuality(rd *dataset.RegionData, sp *space.Space, objective string, picks []int) (float64, error) {
	q := quality(rd, sp, objective, picks)
	if !(q > 0 && q <= 1) {
		return 0, fmt.Errorf("malformed picks %v for objective %s", picks, objective)
	}
	return q, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// doFold runs one leave-one-application-out fold offline: train at
// loocvEpochs on every other application, predict the held-out
// regions, and score them. The fold fails unless every held-out region
// gets one pick per cap (time) or one joint pick (EDP).
func doFold(f *fleet, o op) (float64, error) {
	// Each fold starts from a collected heap, so that peak_rss_mb reads
	// the largest single fold's footprint (≈ 50 MiB, within 2 % from run
	// to run) and not how much garbage of earlier folds happened to pile
	// up before the collector ran (62–82 MiB on identical code).
	runtime.GC()
	k := loocvKeys[o.key]
	d := f.datasets[k.Machine]
	fold := d.LOOCVFolds()[o.region]
	cfg := core.DefaultModelConfig()
	cfg.Epochs = loocvEpochs

	pred := map[string][]int{}
	if k.Objective == registry.ObjectiveTime {
		m := core.TrainPower(d, fold, cfg).Model
		pred = core.PredictPower(d, m, fold.Val)
	} else {
		m := core.TrainEDP(d, fold, cfg).Model
		for id, joint := range core.PredictEDP(d, m, fold.Val) {
			pred[id] = []int{joint}
		}
	}
	var fracs []float64
	for _, rd := range fold.Val {
		q, err := checkedQuality(rd, d.Space, k.Objective, pred[rd.Region.ID])
		if err != nil {
			return 0, fmt.Errorf("fold %s/%s/%s region %s: %w", k.Machine, k.Objective, fold.App, rd.Region.ID, err)
		}
		fracs = append(fracs, q)
	}
	return metrics.GeoMean(fracs), nil
}
