package bliss

import (
	"math"
	"testing"

	"pnptuner/internal/autotune"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
)

// timeTask builds a scenario-1 tuning task at capIdx.
func timeTask(d *dataset.Dataset, capIdx int, seed uint64, budget int) autotune.Problem {
	return autotune.Problem{
		Obj:    autotune.TimeUnderCap{Cap: capIdx},
		Space:  d.Space,
		Budget: budget,
		Seed:   seed,
	}
}

func TestTuneTimeRespectsBudgetAndRange(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	rd := d.Regions[0]
	p := timeTask(d, 0, 1, 10)
	res := autotune.Run(p, autotune.NewReplay(rd, d.Space, p.Obj, p.Seed, NoiseSD, NoiseMix), NewStrategy(p))
	if res.Evals > 10 {
		t.Fatalf("session spent %d evals, budget 10", res.Evals)
	}
	if res.Best < 0 || res.Best >= d.Space.NumConfigs() {
		t.Fatalf("pick %d out of range", res.Best)
	}
}

func TestTuneFindsGoodConfig(t *testing.T) {
	// With 20 samples of 127 configs plus surrogate guidance, BLISS must
	// deliver a clear geometric-mean speedup over the default config at
	// the lowest cap (individual regions may regress: when default is
	// already near-optimal, noisy best-of-20 selection can tip below it,
	// which is exactly the behaviour the paper's comparison exposes).
	d := dataset.MustBuild(hw.Haswell())
	entry := Entry("BLISS")
	var sps []float64
	for _, rd := range d.Regions {
		task := autotune.Task{Problem: timeTask(d, 0, rd.Region.Seed, Budget), RegionID: rd.Region.ID}
		pick := autotune.RunEntry(entry, rd, task).Best
		got := rd.Results[0][pick].TimeSec
		def := rd.DefaultResult(0, d.Space).TimeSec
		sps = append(sps, def/got)
	}
	prod := 1.0
	for _, s := range sps {
		prod *= s
	}
	gm := math.Pow(prod, 1/float64(len(sps)))
	if gm < 1.1 {
		t.Fatalf("BLISS geomean speedup over default = %.3f, want > 1.1", gm)
	}
}

func TestTuneEDPRange(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	task := autotune.Task{Problem: autotune.Problem{Obj: autotune.EDP{}, Space: d.Space, Seed: 7}}
	pick := autotune.RunEntry(Entry("BLISS"), d.Regions[3], task).Best
	if pick < 0 || pick >= d.Space.NumJoint() {
		t.Fatalf("joint pick %d out of range", pick)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	d := dataset.MustBuild(hw.Haswell())
	rd := d.Regions[5]
	task := autotune.Task{Problem: timeTask(d, 1, 42, Budget)}
	a := autotune.RunEntry(Entry("BLISS"), rd, task).Best
	b := autotune.RunEntry(Entry("BLISS"), rd, task).Best
	if a != b {
		t.Fatal("same seed gave different picks")
	}
}

func TestRidgeFitsLinearFunction(t *testing.T) {
	r := &ridge{lambda: 1e-6}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) / 20, float64(i%5) / 5}
		xs = append(xs, x)
		ys = append(ys, 3*x[0]-2*x[1]+1)
	}
	r.fit(xs, ys)
	got := r.predict([]float64{0.5, 0.4})
	want := 3*0.5 - 2*0.4 + 1
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("ridge predict = %g, want %g", got, want)
	}
}

func TestQuadraticRidgeFitsQuadratic(t *testing.T) {
	r := &ridge{lambda: 1e-6, quadratic: true}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 30; i++ {
		x := []float64{float64(i) / 30}
		xs = append(xs, x)
		ys = append(ys, 2*x[0]*x[0]-x[0]+0.5)
	}
	r.fit(xs, ys)
	got := r.predict([]float64{0.6})
	want := 2*0.36 - 0.6 + 0.5
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("quadratic ridge = %g, want %g", got, want)
	}
}

func TestKNNPredictsNeighbourMean(t *testing.T) {
	m := &knn{k: 2}
	m.fit([][]float64{{0}, {0.1}, {1}}, []float64{10, 20, 99})
	got := m.predict([]float64{0.05})
	if math.Abs(got-15) > 1e-12 {
		t.Fatalf("knn = %g, want 15", got)
	}
}

func TestBestModelPrefersBetterFit(t *testing.T) {
	// A clean quadratic should select the quadratic ridge over plain knn.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 15; i++ {
		x := float64(i) / 15
		xs = append(xs, []float64{x})
		ys = append(ys, x*x)
	}
	m := bestModel(xs, ys)
	if _, ok := m.(*ridge); !ok {
		t.Fatalf("bestModel picked %T for a polynomial", m)
	}
}

func TestExploreFallbackSpendsFullBudget(t *testing.T) {
	// Budget = the whole space: the last exploit/explore rounds leave
	// only a handful of unvisited candidates, where 32 random draws
	// routinely all land on visited ones. The linear-scan fallback must
	// keep proposing, so the session spends its entire budget on
	// distinct candidates instead of silently giving up early.
	d := dataset.MustBuild(hw.Haswell())
	rd := d.Regions[0]
	n := d.Space.NumConfigs()
	p := timeTask(d, 0, 3, n)
	res := autotune.Run(p, autotune.NewReplay(rd, d.Space, p.Obj, p.Seed, NoiseSD, NoiseMix), NewStrategy(p))
	if res.Evals != n {
		t.Fatalf("session spent %d of %d evals: explore gave up before the budget", res.Evals, n)
	}
	seen := map[int]bool{}
	for _, o := range res.Trace {
		if seen[o.Config] {
			t.Fatalf("config %d proposed twice", o.Config)
		}
		seen[o.Config] = true
	}
}

func TestSessionAllocsCeiling(t *testing.T) {
	// Regression ceiling for the vectorized session: the dominant costs
	// are the once-per-session feature matrices; the steady-state
	// exploit rounds reuse scratch buffers. A session allocated 13205
	// times at commit de1ffa6, before vectorization, and ~207 after; the
	// ceiling is a 50x-reduction floor.
	d := dataset.MustBuild(hw.Haswell())
	rd := d.Regions[0]
	p := timeTask(d, 0, 1, Budget)
	allocs := testing.AllocsPerRun(10, func() {
		autotune.Run(p, autotune.NewReplay(rd, d.Space, p.Obj, p.Seed, NoiseSD, NoiseMix), NewStrategy(p))
	})
	if allocs > 264 {
		t.Fatalf("BLISS session allocates %.0f times, ceiling 264", allocs)
	}
}
