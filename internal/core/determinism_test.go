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
	"pnptuner/internal/tensor"
)

// weightDigest is an FNV-64a over the little-endian bits of every
// parameter value of m, in Params() order.
func weightDigest(m *Model) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTrainDeterministic pins training bit for bit: the Haswell
// Quicksilver fold trained for two epochs must reach the same weights at
// every GOMAXPROCS and with the kernel pool capped to one worker, and
// those weights must match the pinned digest. A kernel rewrite that
// reorders a sum, or a reduction whose chunking depends on the worker
// count, fails here.
func TestTrainDeterministic(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest is pinned on amd64; Go may fuse x*y+z into FMA on %s and change the last bit", runtime.GOARCH)
	}
	const want = "d70e56e7ba8bca38"
	d, err := dataset.Build(hw.Haswell())
	if err != nil {
		t.Fatal(err)
	}
	fold, ok := d.FoldByApp("Quicksilver")
	if !ok {
		t.Fatal("no Quicksilver fold")
	}
	cfg := DefaultModelConfig()
	cfg.Epochs = 2
	train := func() string { return weightDigest(TrainPower(d, fold, cfg).Model) }

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if got := train(); got != want {
			t.Errorf("GOMAXPROCS=%d: weight digest = %s, want %s", procs, got, want)
		}
	}
	restore := tensor.SetWorkerCap(1)
	defer restore()
	if got := train(); got != want {
		t.Errorf("SetWorkerCap(1): weight digest = %s, want %s", got, want)
	}
}
