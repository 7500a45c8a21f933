package hw

import (
	"fmt"
	"sync"
)

// RAPL emulates Intel's Running Average Power Limit interface for a
// simulated machine: a package power-limit register and a wrapping
// 32-bit energy-status counter in energy units of 61 µJ (the common
// ENERGY_UNIT on server parts), as exposed through MSRs.
type RAPL struct {
	mu sync.Mutex
	m  *Machine
	// limitW is the active package power cap; 0 means uncapped (TDP).
	limitW float64
	// energyRaw is the MSR_PKG_ENERGY_STATUS counter (wraps at 2³²).
	energyRaw uint64
}

// EnergyUnitJ is the joules-per-count granularity of the energy counter.
const EnergyUnitJ = 61e-6

// NewRAPL creates the RAPL interface for machine m, uncapped.
func NewRAPL(m *Machine) *RAPL { return &RAPL{m: m} }

// SetPowerLimit programs the package cap in watts. Values are clamped to
// the hardware envelope [MinPower, TDP], as firmware does.
func (r *RAPL) SetPowerLimit(watts float64) error {
	if watts <= 0 {
		return fmt.Errorf("rapl: non-positive power limit %g", watts)
	}
	if watts < r.m.MinPower {
		watts = r.m.MinPower
	}
	if watts > r.m.TDP {
		watts = r.m.TDP
	}
	r.mu.Lock()
	r.limitW = watts
	r.mu.Unlock()
	return nil
}

// ClearPowerLimit removes the cap (limit returns to TDP).
func (r *RAPL) ClearPowerLimit() {
	r.mu.Lock()
	r.limitW = 0
	r.mu.Unlock()
}

// PowerLimit returns the active cap in watts (TDP when uncapped).
func (r *RAPL) PowerLimit() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limitW == 0 {
		return r.m.TDP
	}
	return r.limitW
}

// AccumulateEnergy adds joules to the package energy counter, emulating
// consumption observed by the hardware meter.
func (r *RAPL) AccumulateEnergy(joules float64) {
	if joules < 0 {
		return
	}
	counts := uint64(joules / EnergyUnitJ)
	r.mu.Lock()
	r.energyRaw = (r.energyRaw + counts) & 0xFFFFFFFF
	r.mu.Unlock()
}

// EnergyStatus returns the raw wrapping counter, as MSR 0x611 would.
func (r *RAPL) EnergyStatus() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.energyRaw
}

// EnergyDelta converts two counter readings (possibly wrapped once) into
// joules, the way PAPI's RAPL component does.
func EnergyDelta(before, after uint64) float64 {
	d := (after - before) & 0xFFFFFFFF
	return float64(d) * EnergyUnitJ
}
