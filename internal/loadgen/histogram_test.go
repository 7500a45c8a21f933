package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pnptuner/internal/telemetry"
)

// serveMetrics exposes reg at /metrics on a test server and returns its
// base URL.
func serveMetrics(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// scrape is ScrapeMetrics with the error turned into a test failure.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	m, err := ScrapeMetrics(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHistogramQuantiles: known uniform latencies recorded into a
// registered histogram come back through a before/after scrape delta
// with the exact count, a near-exact mean and cumulative ladder counts
// within the bucketing error, while the histogram's own max and
// quantiles stay within one sub-bucket.
func TestHistogramQuantiles(t *testing.T) {
	reg := telemetry.New()
	h := reg.Histogram("demo_latency_seconds", "latency", telemetry.Seconds,
		[]float64{0.5, 0.9, 0.99})
	base := serveMetrics(t, reg)

	before := scrape(t, base)
	for i := 1; i <= 1000; i++ {
		h.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	d := MetricsDelta(before, scrape(t, base))

	if n := d["demo_latency_seconds_count"]; n != 1000 {
		t.Fatalf("delta count = %v, want 1000", n)
	}
	if mean := d["demo_latency_seconds_sum"] / 1000; mean < 0.499 || mean > 0.502 {
		t.Fatalf("delta mean = %vs, want ≈0.5005s", mean)
	}
	if n := d[`demo_latency_seconds_bucket{le="+Inf"}`]; n != 1000 {
		t.Fatalf("+Inf bucket = %v, want 1000", n)
	}
	for _, c := range []struct {
		le   string
		want float64
	}{{"0.5", 500}, {"0.9", 900}, {"0.99", 990}} {
		got := d[`demo_latency_seconds_bucket{le="`+c.le+`"}`]
		if got < c.want*15/16 || got > c.want*17/16 { // one sub-bucket of slack
			t.Fatalf("bucket le=%s = %v, want %v ± 6%%", c.le, got, c.want)
		}
	}

	if h.Max() != uint64(time.Second) {
		t.Fatalf("max = %v, want 1s", time.Duration(h.Max()))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Millisecond}, {0.90, 900 * time.Millisecond}, {0.99, 990 * time.Millisecond}} {
		got := time.Duration(h.Quantile(c.q))
		if got < c.want*15/16 || got > c.want*17/16 {
			t.Fatalf("Quantile(%v) = %v, want %v ± 6%%", c.q, got, c.want)
		}
	}
}

// TestQuantileRank pins the rank arithmetic on both readings of one
// histogram: the in-process Quantile and the cumulative ladder counts a
// scrape delta carries. Where q·n is fractional the answer must be the
// rank ceil(q·n), the smallest observation with at least a q fraction
// at or below it. Values stay below 2^subBits with one ladder bound per
// value, so buckets are exact and the assertions are rank-for-rank.
func TestQuantileRank(t *testing.T) {
	cases := []struct {
		name string
		n    int // observations 1..n, one each
		q    float64
		want int // value at rank ceil(q·n)
	}{
		{"p90 of 15 is rank 14", 15, 0.90, 14},
		{"p50 of 5 is rank 3", 5, 0.50, 3},
		{"p50 of 4 is rank 2", 4, 0.50, 2},
		{"p99 of 10 is rank 10", 10, 0.99, 10},
		{"p99 of 7 is rank 7", 7, 0.99, 7},
		{"p25 of 9 is rank 3", 9, 0.25, 3},
		{"p100 of 3 is rank 3", 3, 1.00, 3},
		{"p10 of 3 is rank 1", 3, 0.10, 1},
		{"tiny q clamps to rank 1", 21, 0.001, 1},
	}
	var ladder []float64
	for v := 1; v <= 21; v++ {
		ladder = append(ladder, float64(v))
	}
	reg := telemetry.New()
	vec := reg.HistogramVec("demo_size", "size", telemetry.Units, ladder, "case")
	base := serveMetrics(t, reg)

	before := scrape(t, base)
	for _, tc := range cases {
		h := vec.With(tc.name)
		for v := 1; v <= tc.n; v++ {
			h.Observe(uint64(v))
		}
	}
	d := MetricsDelta(before, scrape(t, base))

	for _, tc := range cases {
		if got := vec.With(tc.name).Quantile(tc.q); got != uint64(tc.want) {
			t.Errorf("%s: Quantile(%v) over 1..%d = %v, want %v",
				tc.name, tc.q, tc.n, got, tc.want)
		}
		// The scraped ladder answers the same: want is the first bound
		// whose cumulative count reaches q·n.
		cum := func(le int) float64 {
			return d[fmt.Sprintf(`demo_size_bucket{case=%q,le="%d"}`, tc.name, le)]
		}
		rank := tc.q * float64(tc.n)
		if cum(tc.want) < rank || cum(tc.want-1) >= rank {
			t.Errorf("%s: scraped cumulative counts at le=%d,%d are %v,%v; rank %v must first be reached at le=%d",
				tc.name, tc.want-1, tc.want, cum(tc.want-1), cum(tc.want), rank, tc.want)
		}
	}
}

// TestQuantileEmpty keeps the empty contract: a histogram that recorded
// nothing scrapes as zero count and sum (not NaN or garbage), moves no
// series in a delta, and reads zero quantile, mean and max in process.
func TestQuantileEmpty(t *testing.T) {
	reg := telemetry.New()
	h := reg.Histogram("demo_idle_seconds", "never observed", telemetry.Seconds, telemetry.DurationBuckets)
	base := serveMetrics(t, reg)

	before := scrape(t, base)
	for _, k := range []string{"demo_idle_seconds_count", "demo_idle_seconds_sum", `demo_idle_seconds_bucket{le="+Inf"}`} {
		if v, ok := before[k]; !ok || v != 0 {
			t.Errorf("scraped %s = %v (present %v), want 0", k, v, ok)
		}
	}
	for k, v := range MetricsDelta(before, scrape(t, base)) {
		if strings.HasPrefix(k, "demo_idle_seconds") {
			t.Errorf("empty histogram moved %s by %v", k, v)
		}
	}
	if q, mean, max := h.Quantile(0.5), h.Mean(), h.Max(); q != 0 || mean != 0 || max != 0 {
		t.Errorf("empty histogram: Quantile(0.5)=%v Mean=%v Max=%v, want all 0", q, mean, max)
	}
}
