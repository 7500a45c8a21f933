package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
)

// datasetDigest is an FNV-64a over every stored field of the sweep, in
// region order: the region ID, then for each Results[ci][ki] the bits of
// TimeSec, PkgEnergyJ, DRAMEnergyJ, FreqGHz and Utilization followed by
// Throttled as one byte, then each BestTimeCfg entry and BestEDPJoint.
// All integers are little-endian uint64.
func datasetDigest(d *Dataset) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, rd := range d.Regions {
		h.Write([]byte(rd.Region.ID))
		for _, row := range rd.Results {
			for _, r := range row {
				put(math.Float64bits(r.TimeSec))
				put(math.Float64bits(r.PkgEnergyJ))
				put(math.Float64bits(r.DRAMEnergyJ))
				put(math.Float64bits(r.FreqGHz))
				put(math.Float64bits(r.Utilization))
				var b byte
				if r.Throttled {
					b = 1
				}
				h.Write([]byte{b})
			}
		}
		for _, k := range rd.BestTimeCfg {
			put(uint64(k))
		}
		put(uint64(rd.BestEDPJoint))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDatasetDigest pins the exhaustive sweep bit for bit on both
// machines, so a change to how the simulator is evaluated (not what it
// models) must leave every label and every measured value unchanged.
func TestDatasetDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; Go may fuse x*y+z into FMA on %s and change the last bit", runtime.GOARCH)
	}
	corpus, err := kernels.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"haswell": "d69d3be2d35a3e50",
		"skylake": "3fe86398053e088e",
	}
	for _, m := range []*hw.Machine{hw.Haswell(), hw.Skylake()} {
		d, err := build(m, corpus)
		if err != nil {
			t.Fatal(err)
		}
		if got := datasetDigest(d); got != want[m.Name] {
			t.Errorf("%s: dataset digest = %s, want %s", m.Name, got, want[m.Name])
		}
	}
}
