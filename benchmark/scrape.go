package main

import (
	"context"
	"strings"

	"pnptuner/internal/loadgen"
)

// scrapes is one reading of every /metrics endpoint of the fleet: the
// gate's series, and the replicas' series summed across replicas.
type scrapes struct {
	gate, replicas map[string]float64
}

// scrapeFleet reads the gate's and every replica's /metrics (nothing,
// offline). It runs immediately before and after the measured phase,
// outside the timed window.
func scrapeFleet(f *fleet) (scrapes, error) {
	ctx := context.Background()
	s := scrapes{replicas: map[string]float64{}}
	if f.gate == nil {
		return s, nil
	}
	var err error
	if s.gate, err = loadgen.ScrapeMetrics(ctx, f.gateURL); err != nil {
		return s, err
	}
	for _, r := range f.replicas {
		m, err := loadgen.ScrapeMetrics(ctx, r.url)
		if err != nil {
			return s, err
		}
		for k, v := range m {
			s.replicas[k] += v
		}
	}
	return s, nil
}

// delta is what moved between two readings.
func (before scrapes) delta(after scrapes) scrapes {
	return scrapes{
		gate:     loadgen.MetricsDelta(before.gate, after.gate),
		replicas: loadgen.MetricsDelta(before.replicas, after.replicas),
	}
}

// sum adds every series of m whose name starts with prefix, so a
// labelled family (`pnp_jobs_total{outcome="done"}`) can be read whole
// or by one label.
func sum(m map[string]float64, prefix string) float64 {
	total := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// mean is a histogram family's mean over the delta: Σ_sum ÷ Σ_count
// across its label sets, 0 when nothing was observed.
func mean(m map[string]float64, family string) float64 {
	if n := sum(m, family+"_count"); n > 0 {
		return sum(m, family+"_sum") / n
	}
	return 0
}
