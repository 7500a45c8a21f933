package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/rgcn"
)

// float64Logits returns head h's raw logits for every graph of cgs.
func float64Logits(m *Model, cgs []*rgcn.CompiledGraph, exs [][]float64, h int) []float64 {
	return m.Logits(m.EncodeCompiled(cgs, exs), h).Data
}

// float32Logits returns head h's raw logits for every graph of cgs from
// the float32 Quantize snapshot.
func float32Logits(q *CompiledModel, cgs []*rgcn.CompiledGraph, exs [][]float64, h int) []float32 {
	return q.Logits(q.EncodeCompiled(cgs, exs), h).Data
}

// logitsDigests trains the test model on every region of d and returns
// FNV-64a digests over the little-endian bits of every logit, float64
// and float32 snapshot, for every region and head, with the cap feature
// set to each power cap in turn.
func logitsDigests(d *dataset.Dataset) (f64, f32 string) {
	cfg := testConfig()
	cfg.Epochs = 2
	cfg.UseCounters = true
	cfg.UseCapFeature = true
	m := NewModel(cfg, d.Corpus.Vocab.Size(), len(d.Space.Caps()), d.Space.NumConfigs())
	m.Fit(PowerSamples(d, d.Regions, cfg))
	q := m.MustQuantize()

	cgs := make([]*rgcn.CompiledGraph, len(d.Regions))
	for i, rd := range d.Regions {
		cgs[i] = rd.Region.CompiledGraph()
	}
	h64, h32 := fnv.New64a(), fnv.New64a()
	var buf [8]byte
	for _, capW := range d.Space.Caps() {
		exs := make([][]float64, len(d.Regions))
		for i, rd := range d.Regions {
			exs[i] = extras(cfg, rd.Counters, capW/d.Machine.TDP)
		}
		for h := range m.Heads {
			for _, v := range float64Logits(m, cgs, exs, h) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h64.Write(buf[:])
			}
			for _, v := range float32Logits(q, cgs, exs, h) {
				binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
				h32.Write(buf[:4])
			}
		}
	}
	return fmt.Sprintf("%016x", h64.Sum64()), fmt.Sprintf("%016x", h32.Sum64())
}

// TestLogitsDigest pins the raw logits of both precisions bit for bit on
// both machines. Argmax parity (TestQuantizedParity*) cannot see a
// last-bit drift in either forward pass; this can.
func TestLogitsDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digests are pinned on amd64; Go may fuse x*y+z into FMA on %s and change the last bit", runtime.GOARCH)
	}
	for _, c := range []struct {
		machine  *hw.Machine
		f64, f32 string
	}{
		{hw.Haswell(), "04892779cecd4f54", "5abd60d47a8c65a8"},
		{hw.Skylake(), "5b75b9e3625be51b", "c6373cfcc97fe7c4"},
	} {
		f64, f32 := logitsDigests(dataset.MustBuild(c.machine))
		if f64 != c.f64 {
			t.Errorf("%s: float64 logits digest = %s, want %s", c.machine.Name, f64, c.f64)
		}
		if f32 != c.f32 {
			t.Errorf("%s: float32 logits digest = %s, want %s", c.machine.Name, f32, c.f32)
		}
	}
}
