package core

import (
	"fmt"
	"math"
	"testing"

	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/tensor"
)

// TestEncoderBatchMatchesPerGraph is the engine's end-to-end parity
// guarantee: the batched block-diagonal encoder pass must reproduce the
// pooled vectors of one-graph batches within 1e-9 on real corpus graphs.
func TestEncoderBatchMatchesPerGraph(t *testing.T) {
	c := kernels.MustCompile()
	cfg := testConfig()
	m := NewModel(cfg, c.Vocab.Size(), 1, 8)
	regions := c.Regions[:12]

	pooled := m.Enc.ForwardBatch(m.Batch(regions)).Clone()
	if pooled.Rows != len(regions) || pooled.Cols != cfg.Hidden {
		t.Fatalf("batched pool shape %dx%d", pooled.Rows, pooled.Cols)
	}
	for i, r := range regions {
		one := m.Enc.ForwardBatch(m.Batch([]*kernels.Region{r}))
		for c := 0; c < cfg.Hidden; c++ {
			if d := math.Abs(one.At(0, c) - pooled.At(i, c)); d > 1e-9 {
				t.Fatalf("region %s col %d: batched %g vs per-graph %g (diff %g)",
					r.ID, c, pooled.At(i, c), one.At(0, c), d)
			}
		}
	}
}

// TestEncoderBatchBackwardMatchesPerGraph checks the training-path parity:
// one batched backward accumulates the same encoder gradients as N
// one-graph batch backwards.
func TestEncoderBatchBackwardMatchesPerGraph(t *testing.T) {
	c := kernels.MustCompile()
	cfg := testConfig()
	seq := NewModel(cfg, c.Vocab.Size(), 1, 8)
	bat := NewModel(cfg, c.Vocab.Size(), 1, 8)
	regions := c.Regions[:8]

	rng := tensor.NewRNG(17)
	dpool := tensor.New(len(regions), cfg.Hidden)
	dpool.FillUniform(rng, 1)

	for i, r := range regions {
		seq.Enc.ForwardBatch(seq.Batch([]*kernels.Region{r}))
		seq.Enc.BackwardBatch(dpool.RowMatrix(i))
	}

	bat.Enc.ForwardBatch(bat.Batch(regions))
	bat.Enc.BackwardBatch(dpool)

	ps, pb := seq.Enc.Params(), bat.Enc.Params()
	for i := range ps {
		for j := range ps[i].Grad.Data {
			if d := math.Abs(ps[i].Grad.Data[j] - pb[i].Grad.Data[j]); d > 1e-9 {
				t.Fatalf("%s grad[%d]: per-graph %g vs batched %g",
					ps[i].Name, j, ps[i].Grad.Data[j], pb[i].Grad.Data[j])
			}
		}
	}
}

// TestEncodeBatchAppendsExtras checks row-wise extra-feature assembly
// against one-graph batches.
func TestEncodeBatchAppendsExtras(t *testing.T) {
	c := kernels.MustCompile()
	cfg := testConfig()
	cfg.UseCounters = true
	cfg.UseCapFeature = true
	m := NewModel(cfg, c.Vocab.Size(), 1, 8)
	regions := c.Regions[:3]
	exs := [][]float64{
		{1, 2, 3, 4, 5, 6},
		{7, 8, 9, 10, 11, 12},
		{13, 14, 15, 16, 17, 18},
	}
	cgs := make([]*rgcn.CompiledGraph, len(regions))
	for i, r := range regions {
		cgs[i] = r.CompiledGraph()
	}
	enc := m.EncodeCompiled(cgs, exs).Clone()
	if enc.Rows != 3 || enc.Cols != cfg.Hidden+6 {
		t.Fatalf("encoded shape %dx%d", enc.Rows, enc.Cols)
	}
	for i, ex := range exs {
		single := m.EncodeCompiled(cgs[i:i+1], [][]float64{ex})
		for c := 0; c < enc.Cols; c++ {
			if d := math.Abs(enc.At(i, c) - single.At(0, c)); d > 1e-9 {
				t.Fatalf("row %d col %d: batch %g vs single %g", i, c, enc.At(i, c), single.At(0, c))
			}
		}
	}
}

func ExampleTrainPower() {
	// Train the scenario-1 model (best OpenMP config per power cap) on a
	// leave-one-out fold of the simulated Haswell dataset. Training and
	// held-out prediction both run on the batched parallel encoder.
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[0] // hold out the first application
	cfg := DefaultModelConfig()
	cfg.EmbedDim, cfg.Hidden, cfg.Epochs = 8, 8, 2 // tiny, for the example
	res := TrainPower(d, fold, cfg)
	fmt.Printf("held out %s: trained on %d regions\n", fold.App, len(fold.Train))
	fmt.Printf("predicted configs for %d regions at %d power caps\n",
		len(res.Pred), len(d.Space.Caps()))
	// Output:
	// held out RSBench: trained on 65 regions
	// predicted configs for 3 regions at 4 power caps
}
