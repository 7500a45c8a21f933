package core

// Parity tests for the float32 quantized serving path (ISSUE 9): a
// trained model's Quantize() artifact must pick exactly the same
// configurations as the float64 model over the full corpus — on both
// machine profiles — before serving is allowed to run it. The logits
// drift by float32 epsilon, but the argmax/top-k decisions must not.

import (
	"math"
	"testing"

	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/nn"
	"pnptuner/internal/rgcn"
)

// quantizeParity trains a scenario-1 model on every region of d, then
// sweeps the full corpus across every power cap comparing float64 and
// quantized picks.
func quantizeParity(t *testing.T, d *dataset.Dataset) {
	t.Helper()
	cfg := testConfig()
	cfg.Epochs = 2
	cfg.UseCounters = true
	cfg.UseCapFeature = true
	m := NewModel(cfg, d.Corpus.Vocab.Size(), len(d.Space.Caps()), d.Space.NumConfigs())
	m.Fit(PowerSamples(d, d.Regions, cfg))

	q, err := m.Quantize()
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	if q.NumHeads() != len(m.Heads) {
		t.Fatalf("quantized heads = %d, want %d", q.NumHeads(), len(m.Heads))
	}

	cgs := make([]*rgcn.CompiledGraph, len(d.Regions))
	for i, rd := range d.Regions {
		cgs[i] = rgcn.CompileGraph(rd.Region.Graph)
	}
	for _, capW := range d.Space.Caps() {
		exs := make([][]float64, len(d.Regions))
		for i, rd := range d.Regions {
			exs[i] = extras(cfg, rd.Counters, capW/d.Machine.TDP)
		}
		ref := m.PredictCompiled(cgs, exs)
		got := q.PredictCompiled(cgs, exs)
		for i := range ref {
			for h := range ref[i] {
				if ref[i][h] != got[i][h] {
					t.Fatalf("%s cap %.0fW: region %s head %d picks float64=%d quantized=%d",
						d.Machine.Name, capW, d.Regions[i].Region.ID, h, ref[i][h], got[i][h])
				}
			}
		}
		refK := m.TopKCompiled(cgs, exs, 3)
		gotK := q.TopKCompiled(cgs, exs, 3)
		for i := range refK {
			for h := range refK[i] {
				for j := range refK[i][h] {
					if refK[i][h][j] != gotK[i][h][j] {
						t.Fatalf("%s cap %.0fW: region %s head %d top-3 rank %d float64=%d quantized=%d",
							d.Machine.Name, capW, d.Regions[i].Region.ID, h,
							j, refK[i][h][j], gotK[i][h][j])
					}
				}
			}
		}
	}
}

func TestQuantizedParityHaswell(t *testing.T) {
	quantizeParity(t, dataset.MustBuild(hw.Haswell()))
}

func TestQuantizedParitySkylake(t *testing.T) {
	quantizeParity(t, dataset.MustBuild(hw.Skylake()))
}

// TestQuantizedParityEDP is the scenario-2 leg: a joint (cap, config)
// model trained on every region must make the same picks through its
// float32 snapshot as in float64, on both machine profiles.
func TestQuantizedParityEDP(t *testing.T) {
	for _, m := range []*hw.Machine{hw.Haswell(), hw.Skylake()} {
		t.Run(m.Name, func(t *testing.T) {
			d := dataset.MustBuild(m)
			cfg := testConfig()
			cfg.Epochs = 2
			model := TrainEDP(d, d.FullFold(), cfg).Model
			ref := PredictEDP(d, model, d.Regions)
			got := PredictEDPQuantized(model.MustQuantize(), d.Regions)
			if len(got) != len(d.Regions) {
				t.Fatalf("quantized picks for %d regions, want %d", len(got), len(d.Regions))
			}
			for _, rd := range d.Regions {
				if id := rd.Region.ID; got[id] != ref[id] {
					t.Errorf("region %s joint pick float64=%d quantized=%d", id, ref[id], got[id])
				}
			}
		})
	}
}

// TestQuantizeIndependentOfSource: the quantized snapshot copies weights,
// so further training of the source must not change its predictions.
func TestQuantizeIndependentOfSource(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	cfg := testConfig()
	cfg.Epochs = 1
	m := NewModel(cfg, d.Corpus.Vocab.Size(), len(d.Space.Caps()), d.Space.NumConfigs())
	samples := PowerSamples(d, d.Regions, cfg)
	m.Fit(samples)
	q := m.MustQuantize()

	cgs := []*rgcn.CompiledGraph{rgcn.CompileGraph(d.Regions[0].Region.Graph)}
	exs := [][]float64{extras(cfg, d.Regions[0].Counters, 0.5)}
	before := q.PredictCompiled(cgs, exs)[0][0]
	m.Fit(samples) // mutate the source after the snapshot
	after := q.PredictCompiled(cgs, exs)[0][0]
	if before != after {
		t.Fatalf("quantized pick drifted with source training: %d → %d", before, after)
	}
}

// TestConvertedNetMatchesModel: Quantize is a weight conversion into the
// same forward code, so converting to float64 instead of float32 must
// reproduce the model's logits bit for bit.
func TestConvertedNetMatchesModel(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	cfg := testConfig()
	cfg.UseCounters = true
	m := NewModel(cfg, d.Corpus.Vocab.Size(), 2, 16)
	n := &network[float64]{Cfg: m.Cfg, Enc: convertEncoder[float64](m.Enc), ExtraDim: m.ExtraDim, Classes: m.Classes}
	for _, h := range m.Heads {
		ch, err := nn.ConvertSequential[float64](h)
		if err != nil {
			t.Fatal(err)
		}
		n.Heads = append(n.Heads, ch)
	}
	cgs := make([]*rgcn.CompiledGraph, 9)
	exs := make([][]float64, len(cgs))
	for i := range cgs {
		rd := d.Regions[i*7]
		cgs[i], exs[i] = rd.Region.CompiledGraph(), extras(cfg, rd.Counters, 0)
	}
	for h := range m.Heads {
		want := float64Logits(m, cgs, exs, h)
		got := n.Logits(n.EncodeCompiled(cgs, exs), h).Data
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("head %d logit %d: converted %v, model %v", h, i, got[i], want[i])
			}
		}
	}
}
