package bench

import (
	"math"
	"strings"
	"testing"

	"pnptuner/internal/autotune"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/frontend"
	"pnptuner/internal/hw"
	"pnptuner/internal/metrics"
	"pnptuner/internal/omp"
	"pnptuner/internal/programl"
	"pnptuner/internal/vocab"
)

// TestPipelineEndToEnd walks a user-authored kernel through the entire
// stack: parse → analyze → lower → graph → vocabulary → simulated
// execution, checking cross-layer consistency at each joint.
func TestPipelineEndToEnd(t *testing.T) {
	src := `
const int N = 300000;
double a[N];
double b[N];
double s;

void saxpyish() {
  #pragma omp parallel for schedule(static) reduction(+:s)
  for (i = 0; i < N; i++) {
    a[i] = a[i] + 2.5 * b[i];
    s += a[i];
  }
}
`
	prog, low, err := frontend.Compile("user", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Regions) != 1 {
		t.Fatalf("regions = %d", len(prog.Regions))
	}
	region := prog.Regions[0]
	if region.Model.Trips != 300000 || !region.Model.HasReduction {
		t.Fatalf("model wrong: %+v", region.Model)
	}

	fn := low.RegionFunc[region.ID]
	if fn == nil || !strings.Contains(fn.Nam, "omp_outlined") {
		t.Fatal("outlining failed")
	}
	g, err := programl.FromFunction(region.ID, fn)
	if err != nil {
		t.Fatal(err)
	}
	v := vocab.New()
	v.Freeze()
	v.Annotate(g)
	for _, n := range g.Nodes {
		if n.Token == vocab.UnknownToken {
			t.Fatalf("user kernel produced unknown token %q", n.Text)
		}
	}

	mach := hw.Haswell()
	ex := omp.NewExecutor(mach)
	rTDP := ex.Run(&region.Model, 1, omp.DefaultConfig(mach), mach.TDP)
	rCap := ex.Run(&region.Model, 1, omp.DefaultConfig(mach), mach.MinPower)
	if !(rCap.TimeSec > rTDP.TimeSec) {
		t.Fatalf("power cap did not slow execution: %g vs %g", rCap.TimeSec, rTDP.TimeSec)
	}
	if !(rTDP.EnergyJ() > 0 && rCap.EDP() > 0) {
		t.Fatal("non-physical energy")
	}
}

// TestHybridTopKBeatsStaticTop1 checks the extension mode: picking the
// best of the model's top-3 candidates by measurement must be at least as
// good as trusting the argmax, and strictly better somewhere.
func TestHybridTopKBeatsStaticTop1(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	fold := d.LOOCVFolds()[0]
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 8
	cfg.EmbedDim, cfg.Hidden = 8, 8
	res := core.TrainPower(d, fold, cfg)
	topk := res.Model.TopK(fold.Val, 0, 3)

	var top1, top3 []float64
	for _, rd := range fold.Val {
		for ci := range d.Space.Caps() {
			// Measure the shortlist through a noise-free engine session:
			// 3 executions per cap instead of BLISS's 20 per region.
			p := autotune.Problem{Obj: autotune.TimeUnderCap{Cap: ci}, Space: d.Space, Budget: 3, Seed: rd.Region.Seed}
			hybrid := autotune.Run(p, autotune.NewOracle(rd, d.Space, p.Obj),
				autotune.NewShortlist(topk[rd.Region.ID][ci])).Best
			best := rd.BestTime(ci)
			top1 = append(top1, best/rd.Results[ci][res.Pred[rd.Region.ID][ci]].TimeSec)
			top3 = append(top3, best/rd.Results[ci][hybrid].TimeSec)
		}
	}
	g1, g3 := metrics.GeoMean(top1), metrics.GeoMean(top3)
	if g3 < g1-1e-12 {
		t.Fatalf("hybrid top-3 (%.4f) worse than top-1 (%.4f): selection broken", g3, g1)
	}
	// Per-case dominance: hybrid can never be worse on any single case.
	for i := range top1 {
		if top3[i] < top1[i]-1e-12 {
			t.Fatalf("hybrid regressed case %d: %.4f < %.4f", i, top3[i], top1[i])
		}
	}
}

// TestOracleConsistencyAcrossMachines: both machines' datasets must agree
// on corpus shape and produce comparable (finite, positive) oracle values.
func TestOracleConsistencyAcrossMachines(t *testing.T) {
	dH := dataset.MustBuild(hw.Haswell())
	dS := dataset.MustBuild(hw.Skylake())
	if len(dH.Regions) != len(dS.Regions) {
		t.Fatal("region counts differ")
	}
	for i := range dH.Regions {
		if dH.Regions[i].Region.ID != dS.Regions[i].Region.ID {
			t.Fatal("region order differs across machines")
		}
		for ci := range dH.Space.Caps() {
			if b := dH.Regions[i].BestTime(ci); !(b > 0) || math.IsInf(b, 0) {
				t.Fatalf("bad Haswell oracle for %s", dH.Regions[i].Region.ID)
			}
		}
	}
	// The same region should generally run faster on the bigger machine
	// at TDP in aggregate.
	var ratios []float64
	for i := range dH.Regions {
		h := dH.Regions[i].BestTime(len(dH.Space.Caps()) - 1)
		s := dS.Regions[i].BestTime(len(dS.Space.Caps()) - 1)
		ratios = append(ratios, h/s)
	}
	if metrics.GeoMean(ratios) < 1 {
		t.Fatalf("Skylake slower than Haswell in aggregate (ratio %.3f); calibration wrong",
			metrics.GeoMean(ratios))
	}
}
