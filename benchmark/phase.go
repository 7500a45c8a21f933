package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pnptuner/internal/metrics"
)

// clients is the generator's concurrency on every serving workload:
// the reference box has two cores, and the fleet shares them.
const clients = 2

// sample is one op's outcome in the measured phase.
type sample struct {
	from time.Time     // open loop: when the op was due; closed loop: when it was sent
	lat  time.Duration // from `from` to the answer
	late time.Duration // open loop: dispatch time − due time
	frac float64       // fraction of oracle; 0 when the op failed
	err  error
}

// phase is what the measured phase observed, before any arithmetic.
type phase struct {
	samples    []sample
	open       bool
	start, end time.Time
	speed      *speedCurve // the cores' speed, start to end and before (calib.go)
	rssMiB     float64     // VmHWM when the phase ended
	mem        memDelta
}

type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// runPhase executes w's ops on w.workers goroutines, each taking the
// next unsent op. On the open loop an op is held until its due time and its
// latency counts from then — so a request that falls due while every
// worker is busy pays for the wait, as it would behind a busy
// connection. Nothing is recorded during the phase except one sample
// per op, written to the op's own slot, and the speedometer's readings.
func runPhase(w *prepared, meter *speedometer) phase {
	ops, open := w.ops, w.open
	p := phase{samples: make([]sample, len(ops)), open: open}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	frozenBefore := meter.frozenSoFar()

	var next atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for n := 0; n < w.workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				s := &p.samples[i]
				s.from = time.Now()
				if open {
					// The schedule runs on a clock that stops while the
					// process is frozen (calib.go): a freeze seen while
					// waiting moves the due time on.
					for {
						s.from = p.start.Add(ops[i].due + meter.frozenSoFar() - frozenBefore)
						wait := time.Until(s.from)
						if wait <= 0 {
							break
						}
						time.Sleep(wait)
					}
					s.late = time.Since(s.from)
				}
				s.frac, s.err = w.do(ops[i])
				s.lat = time.Since(s.from)
			}
		}()
	}
	wg.Wait()
	p.end = time.Now()

	p.speed = meter.curve()
	runtime.ReadMemStats(&m1)
	p.mem = memDelta{
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
	p.rssMiB = peakRSSMiB()
	return p
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's resident high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile is the nearest-rank q-quantile of sorted (ascending): the
// smallest value with at least q of the samples at or below it.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(d []time.Duration) time.Duration { return quantile(sortedCopy(d), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd turns a phase into the end-to-end metrics and the op counts,
// plus the same times as the clock measured them (raw.<metric>) and
// host.speed.
//
// Latency quantiles are over successful ops; a failed op has no latency
// worth reporting and is counted in failed instead. Latencies and CPU
// time are at reference speed (calib.go). So is the length of a phase
// whose ops are sent as fast as they are answered; the open loop's
// length is its schedule's, so its throughput is ops over wall time
// (less any time the process was frozen, which the schedule sat out).
func (p phase) endToEnd() (m map[string]float64, attempted, failed int) {
	var lats, raw []time.Duration
	var fracs []float64
	for _, s := range p.samples {
		if s.err != nil {
			failed++
			continue
		}
		raw = append(raw, s.lat)
		lats = append(lats, p.speed.atRef(s.from, s.from.Add(s.lat)))
		fracs = append(fracs, s.frac)
	}
	attempted = len(p.samples)
	ok := math.Max(float64(attempted-failed), 1)
	lats, raw = sortedCopy(lats), sortedCopy(raw)
	frozen := p.speed.frozen(p.start, p.end)
	wall := p.end.Sub(p.start) - frozen
	if !p.open {
		wall = p.speed.atRef(p.start, p.end)
	}
	cpu, cpuRaw := p.speed.cpuAtRef(p.start, p.end)
	m = map[string]float64{
		"op_p50_ms":           ms(quantile(lats, 0.50)),
		"op_p90_ms":           ms(quantile(lats, 0.90)),
		"ops_per_s":           float64(attempted-failed) / wall.Seconds(),
		"cpu_ms_per_op":       ms(cpu) / ok,
		"peak_rss_mb":         p.rssMiB,
		"oracle_frac_geomean": metrics.GeoMean(fracs),
		"raw.op_p50_ms":       ms(quantile(raw, 0.50)),
		"raw.op_p90_ms":       ms(quantile(raw, 0.90)),
		"raw.ops_per_s":       float64(attempted-failed) / p.end.Sub(p.start).Seconds(),
		"raw.cpu_ms_per_op":   ms(cpuRaw) / ok,
		"host.speed":          p.speed.meanSpeed(p.start, p.end),
		"host.frozen_ms":      ms(frozen),
	}
	return m, attempted, failed
}

// reportFailures prints the first few failed ops to stderr.
func (p phase) reportFailures(workload string) {
	shown := 0
	for i, s := range p.samples {
		if s.err != nil && shown < 5 {
			fmt.Fprintf(os.Stderr, "%s: op %d failed: %v\n", workload, i, s.err)
			shown++
		}
	}
}
