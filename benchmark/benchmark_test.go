package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pnptuner/internal/kernels"
)

func TestQuantileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 10; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}} {
		if got := quantile(d, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
	if got := median([]time.Duration{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %d, want 5 (input order must not matter)", got)
	}
}

func TestSpanNestingAndSelfTime(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("rung0", 7, 0)
	child := rec.begin("rung1", 7, root)
	leaf := rec.begin("leaf", 7, child)
	rec.end(leaf)
	rec.end(child)
	rec.end(root)
	if root != 1 || child != 2 || leaf != 3 {
		t.Fatalf("span IDs %d %d %d, want 1 2 3", root, child, leaf)
	}
	for _, s := range rec.spans {
		if s.Trace != 7 || s.EndNs < s.StartNs {
			t.Errorf("span %+v: wrong trace or negative duration", s)
		}
	}
	if rec.spans[1].Parent != root || rec.spans[2].Parent != child || rec.spans[0].Parent != 0 {
		t.Errorf("parents %d %d %d, want 0 %d %d", rec.spans[0].Parent, rec.spans[1].Parent, rec.spans[2].Parent, root, child)
	}

	// Self time is a span minus its direct children, whatever the
	// clock said above.
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 50, EndNs: 70},
		{ID: 4, Parent: 2, StartNs: 15, EndNs: 25},
	}
	want := []time.Duration{50, 20, 20, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// A nil recorder records nothing and does not panic.
	var off *recorder
	off.end(off.begin("x", 0, 0))

	path := filepath.Join(t.TempDir(), "out", "w.spans.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var back span
	if len(lines) != 3 || json.Unmarshal(lines[2], &back) != nil || back != rec.spans[2] {
		t.Errorf("spans.jsonl round trip: %d lines, last %+v, want %+v", len(lines), back, rec.spans[2])
	}
}

// Reference-speed time scales the busy share of each stretch between two
// readings by the stretch's speed and leaves the waiting share alone.
func TestSpeedCurveArithmetic(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	const ms = time.Millisecond
	// Three 10 ms stretches at speeds 1, ¾ and ½ (each the mean of its two
	// readings). The process is busy for all of the first, half of the
	// second, and — on both cores — all of the third. Every CPU reading
	// also holds the kernel run that ended its stretch.
	c := newSpeedCurve([]tick{
		{at: at(0), kernel: calibRef, cpu: 0},
		{at: at(10), kernel: calibRef, cpu: 10*ms + calibRef},
		{at: at(20), kernel: 2 * calibRef, cpu: 15*ms + 3*calibRef},
		{at: at(30), kernel: 2 * calibRef, cpu: 35*ms + 5*calibRef},
		// A fourth, 20 ms long, of which the process was frozen for 10 ms
		// and busy for the rest, at speed ½.
		{at: at(50), kernel: 2 * calibRef, cpu: 45*ms + 7*calibRef, frozen: 10 * ms},
	})
	for _, k := range []struct {
		from, to int
		want     time.Duration
	}{
		{0, 10, 10 * ms},
		{10, 20, 8750 * time.Microsecond}, // 1 − ½ × (1 − ¾)
		{20, 30, 5 * ms},
		{5, 25, 16250 * time.Microsecond},
		{30, 50, 5 * ms},                  // ½ live × ½ speed
		{50, 60, 2500 * time.Microsecond}, // after the last reading the last stretch holds
		{-10, 0, 10 * ms},                 // before the first, the first
		{12, 12, 0},
	} {
		if got := c.atRef(at(k.from), at(k.to)); got != k.want {
			t.Errorf("atRef(%d ms, %d ms) = %v, want %v", k.from, k.to, got, k.want)
		}
	}
	if got := c.meanSpeed(at(0), at(50)); got != 0.65 { // (1 + ¾ + ½ + 2×½) ÷ 5
		t.Errorf("meanSpeed = %v, want 0.65", got)
	}
	if got := c.meanSpeed(at(10), at(30)); got != 0.625 {
		t.Errorf("meanSpeed of the middle stretches = %v, want 0.625", got)
	}
	if got := c.frozen(at(0), at(50)); got != 10*ms {
		t.Errorf("frozen = %v, want 10ms", got)
	}
	if got := c.frozen(at(0), at(30)); got != 0 {
		t.Errorf("frozen before the freeze = %v, want 0", got)
	}
	ref, raw := c.cpuAtRef(at(0), at(50))
	if want := 28750 * time.Microsecond; ref != want || raw != 45*ms { // 10×1 + 5×¾ + 20×½ + 10×½
		t.Errorf("cpuAtRef = %v of %v, want %v of 45ms", ref, raw, want)
	}
	if ref, _ := c.cpuAtRef(at(5), at(30)); ref != 13750*time.Microsecond { // whole stretches only
		t.Errorf("cpuAtRef from mid-stretch = %v, want 13.75ms", ref)
	}
	if got := (&speedCurve{}).atRef(at(0), at(7)); got != 7*ms {
		t.Errorf("a curve with no readings scaled 7ms to %v", got)
	}

	// A live speedometer reads at both ends and in between.
	m := startSpeedometer()
	began := time.Now()
	time.Sleep(3 * calibGap)
	if part := m.curve(); len(part.ticks) < 2 {
		t.Errorf("running speedometer has %d readings after three gaps", len(part.ticks))
	}
	if live := m.halt(); len(live.ticks) < 3 || !(live.meanSpeed(began, time.Now()) > 0) {
		t.Errorf("live speedometer took %d readings", len(live.ticks))
	}
	if quick := startSpeedometer().halt(); len(quick.ticks) < 2 {
		t.Errorf("a speedometer halted at once took %d readings, want one at each end", len(quick.ticks))
	}
}

// Latencies and CPU time are at reference speed on every loop; the phase
// length only where the ops set it.
func TestEndToEndPacing(t *testing.T) {
	t0 := time.Unix(1000, 0)
	half := newSpeedCurve([]tick{
		{at: t0, kernel: 2 * calibRef},
		{at: t0.Add(time.Second), kernel: 2 * calibRef, cpu: time.Second + 2*calibRef},
	})
	p := phase{start: t0, end: t0.Add(time.Second), speed: half}
	for i := 0; i < 10; i++ {
		p.samples = append(p.samples, sample{from: t0.Add(time.Duration(i) * 100 * time.Millisecond), lat: time.Duration(i+1) * time.Millisecond, frac: 0.5})
	}
	p.samples[9].err = fmt.Errorf("refused")
	closed, attempted, failed := p.endToEnd()
	p.open = true
	open, _, _ := p.endToEnd()
	if attempted != 10 || failed != 1 {
		t.Errorf("attempted %d failed %d, want 10 and 1", attempted, failed)
	}
	for _, k := range []struct {
		name         string
		open, closed float64
	}{
		{"op_p50_ms", 2.5, 2.5}, {"op_p90_ms", 4.5, 4.5}, {"ops_per_s", 9, 18},
		{"cpu_ms_per_op", 500.0 / 9, 500.0 / 9}, {"oracle_frac_geomean", 0.5, 0.5},
		{"raw.op_p50_ms", 5, 5}, {"host.speed", 0.5, 0.5},
	} {
		if got := open[k.name]; math.Abs(got-k.open) > 1e-9 {
			t.Errorf("open loop %s = %v, want %v", k.name, got, k.open)
		}
		if got := closed[k.name]; math.Abs(got-k.closed) > 1e-9 {
			t.Errorf("closed loop %s = %v, want %v", k.name, got, k.closed)
		}
	}
}

// The op sequence and the arrival schedule are functions of the seed
// alone.
func TestSequencesAreSeeded(t *testing.T) {
	gens := map[string]func(seed int64) []op{
		wlServeSteady: func(seed int64) []op {
			ops := predictOps(seed, 500, 68, 4)
			poissonSchedule(seed, ops, steadyRate)
			return ops
		},
		wlServeLarge:  func(seed int64) []op { return predictOps(seed, 300, numBig, 4) },
		wlTuneRefresh: func(seed int64) []op { return tuneOps(seed, 700, 68, 4) },
		wlTrainLOOCV:  func(seed int64) []op { return foldOps(seed, 20, 30) },
	}
	for name, gen := range gens {
		a, b, c := fmt.Sprint(gen(1)), fmt.Sprint(gen(1)), fmt.Sprint(gen(2))
		if a != b {
			t.Errorf("%s: two sequences from seed 1 differ", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same sequence", name)
		}
	}
	a, b := genSource(rand.New(rand.NewSource(5)), 30), genSource(rand.New(rand.NewSource(5)), 30)
	if a != b || a == genSource(rand.New(rand.NewSource(6)), 30) {
		t.Error("generated source is not a function of the seed alone")
	}
}

func TestScheduleShape(t *testing.T) {
	ops := predictOps(3, 2000, 68, 4)
	poissonSchedule(3, ops, steadyRate)
	for i := 1; i < len(ops); i++ {
		if ops[i].due < ops[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if last, want := ops[len(ops)-1].due, 10*time.Second; last != want {
		t.Errorf("last arrival at %v, want exactly %v", last, want)
	}
	// Every (region, key) pair is dealt once per deck of 272.
	seen := map[[2]int]int{}
	for _, o := range ops[:272] {
		seen[[2]int{o.region, o.key}]++
	}
	if len(seen) != 272 {
		t.Errorf("first deck holds %d distinct pairs, want 272", len(seen))
	}
}

// The mix puts the median inside the cheap class and p90 inside BLISS:
// sorted by cost, predict+gnn+hybrid are ranks 0–76 %, opentuner
// 76–85 %, bliss 85–100 %.
func TestTuneMix(t *testing.T) {
	ops := tuneOps(1, 4000, 68, 4)
	count := map[string]int{}
	variants := map[string]map[[2]bool]int{}
	for _, o := range ops {
		count[o.strategy]++
		if o.kind != opPredict {
			if variants[o.strategy] == nil {
				variants[o.strategy] = map[[2]bool]int{}
			}
			variants[o.strategy][[2]bool{o.kind == opTuneAsync, o.measured}]++
			if o.seed == 0 {
				t.Fatal("tune op with seed 0")
			}
		}
	}
	want := map[string]int{"": 1600, "gnn": 720, "hybrid": 720, "opentuner": 360, "bliss": 600}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("mix %v, want %v", count, want)
	}
	for s, v := range variants {
		for combo, n := range v {
			if n != count[s]/4 {
				t.Errorf("%s async=%v measured=%v: %d sessions, want %d", s, combo[0], combo[1], n, count[s]/4)
			}
		}
	}
}

func TestFoldDealOrder(t *testing.T) {
	// 20 folds are Haswell's first 10 applications, both objectives
	// each, whatever the seed.
	for _, seed := range []int64{1, 2} {
		seen := map[[2]int]bool{}
		for _, o := range foldOps(seed, 20, 30) {
			if o.key > 1 || o.region > 9 {
				t.Fatalf("seed %d: fold key %d app %d outside Haswell's first 10 applications", seed, o.key, o.region)
			}
			seen[[2]int{o.key, o.region}] = true
		}
		if len(seen) != 20 {
			t.Errorf("seed %d: %d distinct folds, want 20", seed, len(seen))
		}
	}
	if n := len(foldOps(1, 1000, 30)); n != 120 {
		t.Errorf("fold count capped at %d, want 120", n)
	}
}

func TestGeneratorCompilesAtEverySize(t *testing.T) {
	v := kernels.MustCompile().Vocab
	prev := 0
	for stmts := genMinStmts; stmts <= genMaxStmts; stmts++ {
		r, err := genRegion(rand.New(rand.NewSource(int64(stmts))), "gen", stmts, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.graph.Validate(); err != nil {
			t.Fatalf("%d statements: %v", stmts, err)
		}
		if n := len(r.graph.Nodes); n <= prev {
			t.Errorf("%d statements: %d nodes, not more than the %d of one statement fewer", stmts, n, prev)
		} else {
			prev = n
		}
		for _, m := range machines {
			if rd := r.truth[m]; rd == nil || len(rd.Results) == 0 {
				t.Fatalf("%d statements: no ground truth on %s", stmts, m)
			}
		}
	}
	if prev < 1000 {
		t.Errorf("largest generated graph has %d nodes, want over 1000", prev)
	}
}

// BENCHMARK.json and the Go tables name the same metrics and workloads.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bf.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEndSpecs) || len(bf.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the tables %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEndSpecs), len(perLayerSpecs))
	}
	for i, s := range endToEndSpecs {
		if m := bf.EndToEnd[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end[%d] = %+v, table says %+v", i, m, s)
		}
	}
	for i, s := range perLayerSpecs {
		if m := bf.PerLayer[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer[%d] = %+v, table says %+v", i, m, s)
		}
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, attempted int) string {
		set := &resultSet{Workloads: map[string]*workloadResults{
			wlServeSteady: {Attempted: attempted, EndToEnd: map[string]value{}},
		}}
		for _, s := range endToEndSpecs {
			set.Workloads[wlServeSteady].EndToEnd[s.Name] = value{1, s.Unit}
		}
		set.Workloads[wlServeSteady].EndToEnd["op_p50_ms"] = value{p50, "ms"}
		path := filepath.Join(dir, name)
		if err := set.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1.00, 100)
	for _, c := range []struct {
		name      string
		p50       float64
		attempted int
		want      bool
	}{
		{"same", 1.00, 100, true},
		{"inside", 1.05, 100, true},
		{"outside", 1.30, 100, false},
		{"counts", 1.00, 99, false},
	} {
		var out bytes.Buffer
		got, err := agree(&out, a, write(c.name+".json", c.p50, c.attempted), "../BENCHMARK.json")
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
}

// TestSmoke runs all four workloads end to end at about 1 % of their op
// counts: set-up, measured phase, correctness gate, ladder, spans file.
// The traced run covers everything the untraced one does except the
// cold set-ups, which need the built binary.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, scale: smokeScale(), trace: true, scratch: t.TempDir(), outDir: t.TempDir()}
	for _, name := range workloadNames {
		res, err := runWorkload(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		for _, s := range perLayerSpecs {
			if _, ok := res.Metrics[s.Name]; !ok {
				t.Errorf("%s: traced run lacks %s", name, s.Name)
			}
		}
		if name != wlTrainLOOCV && !(res.Metrics["client.rtt_ms"].Value > 0) {
			t.Errorf("%s: client.rtt_ms = %v, want > 0", name, res.Metrics["client.rtt_ms"].Value)
		}
		if fi, err := os.Stat(filepath.Join(cfg.outDir, name+".spans.jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written: %v", name, err)
		}
	}

	cfg.trace = false
	res, err := runWorkload(wlTrainLOOCV, cfg) // the cheapest set-up
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range endToEndSpecs {
		if v := res.Metrics[s.Name].Value; !(v > 0) {
			t.Errorf("untraced %s = %v, want > 0", s.Name, v)
		}
	}
	if _, err := runWorkload("no-such", cfg); err == nil {
		t.Error("unknown workload accepted")
	}
}
