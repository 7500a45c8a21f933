package loadgen

import (
	"testing"
	"time"

	"pnptuner/internal/telemetry"
)

// TestQuantileRank pins the rank arithmetic an op's latencies go through:
// durations recorded the way Run records them, read back as quantiles and
// through the op's report. Where q·n is fractional the rank must be
// ceil(q·n), the smallest observation with at least a q fraction at or
// below it. Values stay below 2^subBits ns so buckets are exact and the
// assertions are rank-for-rank, free of the log-linear ~3% midpoint error.
func TestQuantileRank(t *testing.T) {
	cases := []struct {
		name string
		n    int // observations 1ns..n ns, one each
		q    float64
		want time.Duration // value at rank ceil(q·n)
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
	for _, tc := range cases {
		st := &opStats{hist: telemetry.NewHistogram()}
		for v := 1; v <= tc.n; v++ {
			st.hist.ObserveDuration(time.Duration(v))
		}
		if got := time.Duration(st.hist.Quantile(tc.q)); got != tc.want {
			t.Errorf("%s: Quantile(%v) over 1..%d = %v, want %v",
				tc.name, tc.q, tc.n, got, tc.want)
		}
		r := st.report(false)
		reported := map[float64]float64{0.50: r.P50Millis, 0.90: r.P90Millis, 0.99: r.P99Millis}
		if got, ok := reported[tc.q]; ok && got != ms(uint64(tc.want)) {
			t.Errorf("%s: reported p%v = %vms, want %vms",
				tc.name, tc.q*100, got, ms(uint64(tc.want)))
		}
	}
}

// TestQuantileEmpty keeps the empty contract: an op that recorded nothing
// reports zero quantiles, mean and max, not NaN or garbage.
func TestQuantileEmpty(t *testing.T) {
	st := &opStats{hist: telemetry.NewHistogram()}
	if got := st.hist.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	r := st.report(true)
	if r.P50Millis != 0 || r.P90Millis != 0 || r.P99Millis != 0 || r.MeanMillis != 0 || r.MaxMillis != 0 {
		t.Errorf("empty op report = %+v, want all-zero latencies", r)
	}
}
