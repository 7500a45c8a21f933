package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pnptuner/internal/telemetry"
)

// TestScrapeMetricsDelta: scraping a live /metrics before and after
// traffic yields exactly the series that moved, counted from the
// before value (and series born between scrapes count from zero).
func TestScrapeMetricsDelta(t *testing.T) {
	tel := telemetry.New()
	reqs := tel.Counter("demo_requests_total", "requests")
	tel.Counter("demo_idle_total", "never moves")
	errs := tel.CounterVec("demo_errors_total", "errors", "code")

	mux := http.NewServeMux()
	mux.Handle("/metrics", tel.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	before, err := ScrapeMetrics(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	reqs.Inc()
	reqs.Inc()
	errs.With("overloaded").Inc() // a series born after the first scrape
	after, err := ScrapeMetrics(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	got := MetricsDelta(before, after)
	want := map[string]float64{
		"demo_requests_total":                  2,
		`demo_errors_total{code="overloaded"}`: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta = %v, want %v", got, want)
	}
}

// TestScrapeMetricsErrors: a non-200 target and a dead target both
// surface as errors, not empty maps, so a caller can tell "no deltas
// because the scrape failed" from "nothing moved".
func TestScrapeMetricsErrors(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	if _, err := ScrapeMetrics(context.Background(), ts.URL); err == nil {
		t.Fatal("404 target scraped without error")
	}
	ts.Close()
	if _, err := ScrapeMetrics(context.Background(), ts.URL); err == nil {
		t.Fatal("dead target scraped without error")
	}
}
