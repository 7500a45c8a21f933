package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMachinesValidate(t *testing.T) {
	for _, m := range Machines() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTopologyCounts(t *testing.T) {
	sky, has := Skylake(), Haswell()
	if sky.NumCores() != 32 || sky.NumHWThreads() != 64 {
		t.Errorf("skylake cores=%d threads=%d", sky.NumCores(), sky.NumHWThreads())
	}
	if has.NumCores() != 16 || has.NumHWThreads() != 32 {
		t.Errorf("haswell cores=%d threads=%d", has.NumCores(), has.NumHWThreads())
	}
}

func TestPowerAtBaseNearTDP(t *testing.T) {
	// Calibration invariant: all physical cores at base frequency should
	// draw approximately TDP (within 15%).
	for _, m := range Machines() {
		p := m.Power(m.NumCores(), m.FBase)
		if p < 0.85*m.TDP || p > 1.15*m.TDP {
			t.Errorf("%s: P(allcores, fbase) = %.1fW vs TDP %.0fW", m.Name, p, m.TDP)
		}
	}
}

func TestPowerMonotoneInThreadsAndFreq(t *testing.T) {
	for _, m := range Machines() {
		for n := 1; n < m.NumCores(); n++ {
			if m.Power(n+1, m.FBase) < m.Power(n, m.FBase)-1e-9 {
				t.Errorf("%s: power not monotone in threads at n=%d", m.Name, n)
			}
		}
		for f := m.FMin; f < m.FMax; f += 0.1 {
			if m.Power(8, f+0.1) < m.Power(8, f)-1e-9 {
				t.Errorf("%s: power not monotone in frequency at f=%.1f", m.Name, f)
			}
		}
	}
}

func TestFreqAtCapRespectsCap(t *testing.T) {
	for _, m := range Machines() {
		for _, capW := range m.PowerLimits {
			for _, n := range m.ThreadCounts {
				f, throttle := m.FreqAtCap(n, capW)
				if f < m.FMin-1e-9 || f > m.FMax+1e-9 {
					t.Errorf("%s n=%d cap=%g: f=%g outside envelope", m.Name, n, capW, f)
				}
				if throttle == 1 {
					// Unthrottled: power at f must be within the cap (+ε).
					if p := m.Power(n, f); p > capW*1.001 && f > m.FMin {
						t.Errorf("%s n=%d cap=%g: power %g exceeds cap", m.Name, n, capW, p)
					}
				} else if throttle <= 0 || throttle > 1 {
					t.Errorf("throttle out of range: %g", throttle)
				}
			}
		}
	}
}

func TestFreqAtCapMonotoneInCap(t *testing.T) {
	for _, m := range Machines() {
		for _, n := range m.ThreadCounts {
			prev := 0.0
			for capW := m.MinPower; capW <= m.TDP; capW += 5 {
				f, th := m.FreqAtCap(n, capW)
				eff := f * th
				if eff+1e-9 < prev {
					t.Errorf("%s n=%d: effective freq decreased with higher cap", m.Name, n)
				}
				prev = eff
			}
		}
	}
}

func TestFewerThreadsRunFaster(t *testing.T) {
	// Under a tight cap, a smaller team sustains a higher frequency.
	for _, m := range Machines() {
		capW := m.MinPower
		f1, _ := m.FreqAtCap(1, capW)
		fall, _ := m.FreqAtCap(m.NumCores(), capW)
		if f1 <= fall {
			t.Errorf("%s at %gW: f(1)=%g <= f(all)=%g", m.Name, capW, f1, fall)
		}
	}
}

func TestTurboFreqCappedByEnvelope(t *testing.T) {
	for _, m := range Machines() {
		if f := m.TurboFreq(1); f != m.FMax {
			t.Errorf("%s: single-core turbo %g, want fmax %g", m.Name, f, m.FMax)
		}
		fAll := m.TurboFreq(m.NumCores())
		if fAll >= m.FMax || fAll < m.FBase*0.8 {
			t.Errorf("%s: all-core turbo %g implausible", m.Name, fAll)
		}
	}
}

func TestValidateCatchesBadMachines(t *testing.T) {
	bad := Skylake()
	bad.FMin = 5
	if err := bad.Validate(); err == nil {
		t.Error("accepted FMin > FBase")
	}
	bad = Skylake()
	bad.PowerLimits = []float64{10}
	if err := bad.Validate(); err == nil {
		t.Error("accepted cap below MinPower")
	}
	bad = Skylake()
	bad.ThreadCounts = []int{999}
	if err := bad.Validate(); err == nil {
		t.Error("accepted thread count beyond hardware")
	}
}

func TestByName(t *testing.T) {
	if m, err := ByName("haswell"); err != nil || m.Name != "haswell" {
		t.Errorf("ByName(haswell) = %v, %v", m, err)
	}
	if _, err := ByName("epyc"); err == nil {
		t.Error("ByName invented a machine")
	}
}

func TestRAPLClampsAndReads(t *testing.T) {
	r := NewRAPL(Skylake())
	if err := r.SetPowerLimit(-3); err == nil {
		t.Error("accepted negative limit")
	}
	if err := r.SetPowerLimit(10); err != nil {
		t.Fatal(err)
	}
	if got := r.PowerLimit(); got != 75 {
		t.Errorf("clamped limit = %g, want MinPower 75", got)
	}
	if err := r.SetPowerLimit(500); err != nil {
		t.Fatal(err)
	}
	if got := r.PowerLimit(); got != 150 {
		t.Errorf("clamped limit = %g, want TDP 150", got)
	}
	r.ClearPowerLimit()
	if got := r.PowerLimit(); got != 150 {
		t.Errorf("uncapped limit = %g, want TDP", got)
	}
}

func TestRAPLEnergyCounterWraps(t *testing.T) {
	r := NewRAPL(Haswell())
	before := r.EnergyStatus()
	r.AccumulateEnergy(100) // 100 J
	after := r.EnergyStatus()
	got := EnergyDelta(before, after)
	if math.Abs(got-100) > 0.01 {
		t.Errorf("energy delta = %g, want 100", got)
	}
	// Force a wrap: push the counter near 2³².
	big := float64(1<<32) * EnergyUnitJ * 0.999
	r.AccumulateEnergy(big)
	b2 := r.EnergyStatus()
	r.AccumulateEnergy(50)
	a2 := r.EnergyStatus()
	if a2 > b2 {
		// Depending on position it may not wrap; force again.
		r.AccumulateEnergy(big)
		b2 = r.EnergyStatus()
		r.AccumulateEnergy(50)
		a2 = r.EnergyStatus()
	}
	if d := EnergyDelta(b2, a2); math.Abs(d-50) > 0.01 {
		t.Errorf("wrapped delta = %g, want 50", d)
	}
}

// Property: FreqAtCap never returns a frequency whose (unthrottled) power
// exceeds the cap by more than the FMin floor allows.
func TestQuickFreqAtCapSound(t *testing.T) {
	f := func(seed uint64) bool {
		m := Machines()[int(seed%2)]
		n := 1 + int(seed>>2)%m.NumHWThreads()
		capW := m.MinPower + float64(seed%97)/96*(m.TDP-m.MinPower)
		fq, th := m.FreqAtCap(n, capW)
		if th < 1 {
			return fq == m.FMin
		}
		return m.Power(n, fq) <= capW*1.001 || fq == m.FMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
