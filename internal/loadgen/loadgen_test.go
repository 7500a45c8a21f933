package loadgen

import (
	"context"
	"testing"
	"time"

	"pnptuner/internal/client"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/testutil"
)

// TestHistogramQuantiles: known uniform data comes back through an
// op's report with near-exact mean/max, quantiles within the bucketing
// error, and the raw buckets exported.
func TestHistogramQuantiles(t *testing.T) {
	st := &opStats{hist: telemetry.NewHistogram()}
	for i := 1; i <= 1000; i++ {
		st.hist.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	if st.hist.Count() != 1000 {
		t.Fatalf("count = %d", st.hist.Count())
	}
	r := st.report(true)
	if r.MaxMillis != 1000 {
		t.Fatalf("max = %vms", r.MaxMillis)
	}
	if r.MeanMillis < 499 || r.MeanMillis > 502 {
		t.Fatalf("mean = %vms, want ≈500.5ms", r.MeanMillis)
	}
	for _, c := range []struct{ got, want float64 }{
		{r.P50Millis, 500}, {r.P90Millis, 900}, {r.P99Millis, 990},
	} {
		if c.got < c.want*15/16 || c.got > c.want*17/16 { // one sub-bucket of slack
			t.Fatalf("quantile = %vms, want %vms ± 6%%", c.got, c.want)
		}
	}
	if len(r.Histogram) == 0 {
		t.Fatal("no exported buckets")
	}
}

// TestRunAgainstCluster drives a short mixed-op run against a real
// 2-replica cluster: clean error-free completion with nonzero
// throughput and populated per-op quantiles.
func TestRunAgainstCluster(t *testing.T) {
	c := testutil.StartCluster(t, 2)
	rep, err := Run(context.Background(), Config{
		Target:   c.GateURL,
		Client:   client.New(c.GateURL),
		Rate:     150,
		Duration: 400 * time.Millisecond,
		Seed:     7,
		Machines: []string{"haswell"},
		Budget:   1,
		Regions:  2,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.Completed == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("run saw %d errors: %+v", rep.Errors, rep.Ops)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", rep.ThroughputRPS)
	}
	pred := rep.Ops[OpPredict]
	if pred.Count == 0 || pred.P50Millis <= 0 || pred.P99Millis < pred.P50Millis {
		t.Fatalf("predict stats = %+v", pred)
	}
	if len(pred.Histogram) == 0 {
		t.Fatal("histogram missing from artifact")
	}
}
