// Package loadgen reads a server's own account of a load run: its
// /metrics exposition scraped into a flat series map before and after
// the run, and the delta of the two. The benchmark ledger scrapes the
// gate and every replica around each measured phase this way, so its
// per-layer metrics (queue waits, sheds, cache hits) come from the
// servers themselves, next to the latencies the client observed.
package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"pnptuner/internal/telemetry"
)

// ScrapeMetrics pulls the target's /metrics exposition into a flat
// series → value map (telemetry.ParseText's shape). Scraping a target
// once before and once after a run and taking MetricsDelta gives the
// server's view of that run alone.
func ScrapeMetrics(ctx context.Context, baseURL string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: %s/metrics: %s", baseURL, resp.Status)
	}
	return telemetry.ParseText(resp.Body)
}

// MetricsDelta subtracts a before scrape from an after scrape,
// keeping only the series that moved (gauges that held still and
// counters nothing touched carry no information about the run).
// Series that first appear in the after scrape count from zero —
// a family born under load is exactly the kind of movement the
// delta exists to show.
func MetricsDelta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
