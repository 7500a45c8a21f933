package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
)

// wallTimeLines are the two output lines that report a measured
// training-time ratio; every other line of RunAll is a pure function of
// the seeded corpus and model.
var wallTimeLines = []string{
	"transfer learning: ",
	"Transfer-learning training speedup",
}

// TestRunAllQuick runs every driver once at quick scale, checks the
// shapes of the figures no other test reaches, and pins the printed text
// (minus the wall-time lines) by digest: a change to training, scoring
// or printing that moves any pick or number shows here.
func TestRunAllQuick(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the output digest is pinned on amd64; Go may fuse x*y+z into FMA on %s and change the last bit", runtime.GOARCH)
	}
	var b bytes.Buffer
	all, err := RunAll(&b, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f := all.Fig3; f.Machine != "skylake" || len(f.Caps) != 4 || f.TransferSpeedup <= 0 {
		t.Fatalf("Fig3: machine %s, %d caps, transfer speedup %g", f.Machine, len(f.Caps), f.TransferSpeedup)
	}
	if f := all.Fig4; len(f.TargetCaps) != 2 || f.TargetCaps[0] != 150 || f.TargetCaps[1] != 75 ||
		len(f.Speedup) != 2 || len(f.Apps) == 0 || len(f.RegionNorm) == 0 {
		t.Fatalf("Fig4: target caps %v, speedups %v, %d apps", f.TargetCaps, f.Speedup, len(f.Apps))
	}

	var sum bytes.Buffer
	all.Summary(&sum)
	if rows := strings.Count(sum.String(), " measured "); rows != 25 {
		t.Errorf("summary prints %d rows, want 25:\n%s", rows, sum.String())
	}

	var kept []string
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		wall := false
		for _, w := range wallTimeLines {
			wall = wall || strings.Contains(line, w)
		}
		if !wall {
			kept = append(kept, line)
		}
	}
	if dropped := len(strings.SplitAfter(b.String(), "\n")) - len(kept); dropped != len(wallTimeLines) {
		t.Errorf("dropped %d wall-time lines, want %d", dropped, len(wallTimeLines))
	}
	h := sha256.Sum256([]byte(strings.Join(kept, "")))
	const want = "fbb4c3a12f929d9a25916fedd086283de25408c7d720d01581f1b184f6d6165a"
	if got := hex.EncodeToString(h[:]); got != want {
		t.Errorf("RunAll output digest = %s, want %s", got, want)
	}
}
