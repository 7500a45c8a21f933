package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box is a two-core guest whose cores run anywhere between
// full speed and little more than half of it, for tens of milliseconds
// or for minutes at a time, depending on what its neighbours and its own
// second core are doing: a fixed 4 ms loop timed for five minutes took
// 4.3 ms at best and between 5.0 and 7.1 ms as the median of successive
// 25 s stretches. No amount of repetition inside a 10 s phase averages
// that out; on identical code, CPU-bound metrics of back-to-back runs
// spread by 20–30 %.
//
// So a speedometer runs beside everything the benchmark times: every
// calibGap it times a small fixed kernel of the benchmark's own and
// reads the process's CPU clock. speed = calibRef ÷ kernel time is how
// fast the cores were at that moment, relative to the reference box's
// typical speed under load, and every end-to-end time is reported at
// reference speed: the part of it the process spent on a core is scaled
// by the speed the cores had then, the part it spent waiting on the
// clock — a batch window, a poll interval, an arrival that is not due
// yet — is not (speedCurve, below). On the reference box that reads as
// ordinary milliseconds; elsewhere it is off by one constant, which no
// comparison between two commits sees. The kernel lives here and
// nowhere else: a change to the system cannot move it.
const (
	calibRef = 110 * time.Microsecond
	calibGap = 4 * time.Millisecond // ≈ 3 % of one core
)

var (
	calibGrid [2048]float64 // 16 KiB: stays in L1
	calibText [16384]byte
	// calibSink keeps the compiler from discarding the kernel.
	calibSink float64
)

func init() {
	for i := range calibGrid {
		calibGrid[i] = float64(i%97) * 0.01
	}
	for i := range calibText {
		calibText[i] = byte(i*131 + i>>7)
	}
}

// calibKernel is the fixed work: a four-way unrolled multiply-add over
// a cache-resident array (the shape of the tensor kernels) and a
// branchy byte scan (the shape of JSON decoding), sized to take
// calibRef on the reference box when both cores are busy.
func calibKernel() time.Duration {
	start := time.Now()
	a0, a1, a2, a3 := 0.0, 0.0, 0.0, 0.0
	for rep := 0; rep < 24; rep++ {
		for i := 0; i < len(calibGrid); i += 4 {
			a0 += calibGrid[i] * 1.0001
			a1 += calibGrid[i+1] * 0.9999
			a2 += calibGrid[i+2] * 1.0002
			a3 += calibGrid[i+3] * 0.9998
		}
	}
	depth, quotes := 0, 0
	for rep := 0; rep < 2; rep++ {
		for _, c := range calibText {
			switch {
			case c == '"':
				quotes++
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				depth--
			case c < ' ':
				quotes ^= 1
			}
		}
	}
	calibSink = a0 + a1 + a2 + a3 + float64(depth+quotes)
	return time.Since(start)
}

// tick is one reading of the speedometer.
type tick struct {
	at     time.Time
	kernel time.Duration // how long the kernel took
	cpu    time.Duration // the process's CPU clock right after it
	// frozen is how long the whole process stood still before this
	// reading: the host took the guest's cores away.
	frozen time.Duration
}

// freezeMin is how overdue a reading must be before the delay is taken
// for a freeze — and then only if the process used less than half a core
// meanwhile. A speedometer kept waiting by the program itself (both
// cores in training loops, say) is late while the CPU clock runs; one
// kept waiting by the host is late while it stands still. On the
// reference box freezes of 20–90 ms come in bursts and add up to as much
// as 3 % of a run.
const freezeMin = 2 * calibGap

// speedometer samples the cores' speed from startSpeedometer to halt,
// with a reading at each end. A run has one, from before set-up until
// after the last span.
type speedometer struct {
	mu     sync.Mutex
	ticks  []tick       // guarded by mu
	frozen atomic.Int64 // total of ticks[].frozen so far, for frozenSoFar
	stop   chan struct{}
	done   chan struct{}
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTimer(calibGap)
		defer t.Stop()
		stopped := false
		for {
			woke := time.Now()
			k := calibKernel()
			r := tick{at: time.Now(), kernel: k, cpu: cpuTime()}
			s.mu.Lock()
			if n := len(s.ticks); n > 0 {
				slept := woke.Sub(s.ticks[n-1].at)
				if over := slept - calibGap; over > freezeMin && r.cpu-s.ticks[n-1].cpu < slept/2 {
					r.frozen = over
					s.frozen.Add(int64(over))
				}
			}
			s.ticks = append(s.ticks, r)
			s.mu.Unlock()
			if stopped {
				return
			}
			t.Reset(calibGap)
			select {
			case <-s.stop:
				stopped = true // one last reading closes the curve
			case <-t.C:
			}
		}
	}()
	return s
}

// frozenSoFar is how long the process has stood still since the
// speedometer started, as far as its readings have seen. The open loop
// holds its schedule back by this much, as a generator on another box
// would not have to: a frozen guest answers nothing, and every arrival
// that fell due meanwhile would otherwise queue behind the thaw.
func (s *speedometer) frozenSoFar() time.Duration { return time.Duration(s.frozen.Load()) }

// curve returns the readings so far as a speed curve. The speedometer
// keeps running; the curve's last stretch stands for the few
// milliseconds since the latest reading.
func (s *speedometer) curve() *speedCurve {
	s.mu.Lock()
	defer s.mu.Unlock()
	return newSpeedCurve(s.ticks[:len(s.ticks):len(s.ticks)])
}

// halt stops the speedometer, after one last reading, and returns all
// its readings as a speed curve.
func (s *speedometer) halt() *speedCurve {
	close(s.stop)
	<-s.done
	return s.curve()
}

// speedCurve is a finished speedometer's readings, stretch by stretch
// (a stretch is the time between two readings). Over the part of a
// stretch the process was not frozen for — the live part — the cores ran
// at the mean of the two readings' speeds, and the process was busy, on
// at least one core, for min(1, CPU time ÷ live time) of it. Only the
// busy share is paced by the cores, so one wall second of the stretch is
//
//	factor = live share × (1 − busy × (1 − speed))
//
// reference seconds: all of the live part scales while a training loop
// or two closed-loop clients keep the cores busy, about a third of it on
// the open loop, none of it across a timer wait.
type speedCurve struct {
	ticks  []tick
	speed  []float64       // of stretch i, from ticks[i] to ticks[i+1]
	factor []float64       // of stretch i
	area   []time.Duration // ∫ factor dt from ticks[0] to ticks[i]
}

func newSpeedCurve(ticks []tick) *speedCurve {
	n := len(ticks) - 1
	if n < 1 {
		return &speedCurve{} // no stretch yet: times read as measured
	}
	c := &speedCurve{ticks: ticks, speed: make([]float64, n), factor: make([]float64, n), area: make([]time.Duration, n+1)}
	for i := 0; i < n; i++ {
		a, b := ticks[i], ticks[i+1]
		wall := b.at.Sub(a.at)
		live := wall - b.frozen
		c.speed[i] = (float64(calibRef)/float64(a.kernel) + float64(calibRef)/float64(b.kernel)) / 2
		if live > 0 {
			busy := math.Min(1, float64(c.cpu(i))/float64(live))
			c.factor[i] = float64(live) / float64(wall) * (1 - busy*(1-c.speed[i]))
		}
		c.area[i+1] = c.area[i] + scaleBy(wall, c.factor[i])
	}
	return c
}

// cpu is the process CPU time of stretch i, less the speedometer's own:
// the kernel run that ended the stretch.
func (c *speedCurve) cpu(i int) time.Duration {
	d := c.ticks[i+1].cpu - c.ticks[i].cpu - c.ticks[i+1].kernel
	if d < 0 {
		return 0
	}
	return d
}

func scaleBy(d time.Duration, by float64) time.Duration { return time.Duration(float64(d) * by) }

// upTo is ∫ factor dt from the first reading to t; outside the readings
// the nearest stretch's factor applies.
func (c *speedCurve) upTo(t time.Time) time.Duration {
	i := sort.Search(len(c.ticks), func(i int) bool { return c.ticks[i].at.After(t) }) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.factor) {
		i = len(c.factor) - 1
	}
	return c.area[i] + scaleBy(t.Sub(c.ticks[i].at), c.factor[i])
}

// atRef is the interval [from, to] at reference speed.
func (c *speedCurve) atRef(from, to time.Time) time.Duration {
	if len(c.factor) == 0 {
		return to.Sub(from)
	}
	return c.upTo(to) - c.upTo(from)
}

// within reports whether stretch i lies inside [from, to].
func (c *speedCurve) within(i int, from, to time.Time) bool {
	return !c.ticks[i].at.Before(from) && !c.ticks[i+1].at.After(to)
}

// cpuAtRef is the process CPU time spent in [from, to] at reference
// speed, and as the clock measured it: each whole stretch's CPU time,
// scaled by its speed or not.
func (c *speedCurve) cpuAtRef(from, to time.Time) (ref, raw time.Duration) {
	for i := range c.speed {
		if c.within(i, from, to) {
			ref += scaleBy(c.cpu(i), c.speed[i])
			raw += c.cpu(i)
		}
	}
	return ref, raw
}

// frozen is how long the process stood still in [from, to].
func (c *speedCurve) frozen(from, to time.Time) time.Duration {
	var total time.Duration
	for i := range c.speed {
		if c.within(i, from, to) {
			total += c.ticks[i+1].frozen
		}
	}
	return total
}

// meanSpeed is the time-weighted mean speed over [from, to].
func (c *speedCurve) meanSpeed(from, to time.Time) float64 {
	var sum, wall float64
	for i, s := range c.speed {
		if c.within(i, from, to) {
			d := float64(c.ticks[i+1].at.Sub(c.ticks[i].at))
			sum, wall = sum+s*d, wall+d
		}
	}
	if wall == 0 {
		return 1
	}
	return sum / wall
}
