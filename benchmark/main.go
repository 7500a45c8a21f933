// Command benchmark is the fleet ledger: the one harness every
// performance claim in this repository is measured with. It boots the
// real serving fleet in-process (three replicas and a gate, from the
// constructors the cmd/ mains use), drives one of four seeded
// workloads from a single load-generating process, checks every
// answer, and prints seven end-to-end metrics — or, with -trace 1, the
// per-layer ladder that says which module owns the time.
//
//	go run ./benchmark -workload serve-steady -seed 1
//	go run ./benchmark -workload all -seed 1 -out benchmark/results/set-a.json
//	go run ./benchmark -agree benchmark/results/set-a.json benchmark/results/set-b.json
//
// See README.md in this directory for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload  = flag.String("workload", "", "serve-steady | serve-large | tune-refresh | train-loocv | all")
		seed      = flag.Int64("seed", 1, "workload seed: op sequence, arrival schedule, generated sources")
		seconds   = flag.Float64("seconds", defaultSeconds, "nominal length of the measured phase; op counts are rate × seconds")
		trace     = flag.Int("trace", 0, "1: run the traced ladder and print the per-layer metrics instead of the end-to-end ones")
		smoke     = flag.Bool("smoke", false, "about 1% of the op counts, one set-up, a short ladder")
		setupOnly = flag.Bool("setup-only", false, "set the workload up, print the set-up time in seconds (at reference speed, as measured), exit")
		out       = flag.String("out", "", "with -workload all: write the result set here")
		agreeMode = flag.Bool("agree", false, "compare two result sets: -agree a.json b.json")
	)
	flag.Parse()

	if *agreeMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree wants two result-set files"))
		}
		ok, err := agree(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	sc := fullScale(*seconds)
	if *smoke {
		sc = smokeScale()
	}
	cfg := runConfig{seed: *seed, scale: sc, trace: *trace == 1, scratch: ".bench_build/tmp", outDir: "benchmark/out"}

	switch {
	case *workload == "all":
		if err := runAll(cfg, *out); err != nil {
			fatal(err)
		}
	case *setupOnly:
		d, err := setupOnce(*workload, cfg.scratch)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d.ref.Seconds(), d.raw.Seconds())
	default:
		res, err := runWorkload(*workload, cfg)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the contract's last-line object
// plus which workload and seed produced it.
type result struct {
	Workload  string           `json:"-"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// AsMeasured are an untraced run's times before they were brought to
	// reference speed (raw.<metric>) and the speed itself: printed, not
	// part of the result object.
	AsMeasured map[string]value `json:"-"`
}

// print writes every metric as `workload/metric value unit`, the op
// counts, and last the one-line JSON object the driver reads.
func (r *result) print(w *os.File) {
	for _, m := range []map[string]value{r.Metrics, r.AsMeasured} {
		for _, n := range sortedKeys(m) {
			fmt.Fprintf(w, "%s/%s %v %s\n", r.Workload, n, m[n].Value, m[n].Unit)
		}
	}
	frac := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(w, "%s/failed_frac %v ratio (attempted %d, succeeded %d, failed %d)\n",
		r.Workload, frac, r.Attempted, r.Attempted-r.Failed, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
