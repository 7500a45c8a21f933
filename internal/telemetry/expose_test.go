package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exact exposition bytes for a
// registry exercising every family kind: counters (labeled and not),
// gauges, func-backed metrics and a histogram with its cumulative le
// ladder. Monitoring pipelines parse this text — format drift is a
// regression, not a cosmetic change.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	reqs := r.CounterVec("test_requests_total", "Requests by route.", "route")
	reqs.With("/v1/predict").Add(3)
	reqs.With("/v1/tune").Inc()
	r.Gauge("test_depth", "Current queue depth.").Set(7)
	r.GaugeFunc("test_pool_size", "Sampled pool size.", func() float64 { return 2.5 })
	h := r.Histogram("test_latency", "Latency in fake units.", Units, []float64{1, 10, 100})
	for _, v := range []uint64{0, 5, 50, 500} {
		h.Observe(v)
	}

	want := strings.Join([]string{
		"# HELP test_requests_total Requests by route.",
		"# TYPE test_requests_total counter",
		`test_requests_total{route="/v1/predict"} 3`,
		`test_requests_total{route="/v1/tune"} 1`,
		"# HELP test_depth Current queue depth.",
		"# TYPE test_depth gauge",
		"test_depth 7",
		"# HELP test_pool_size Sampled pool size.",
		"# TYPE test_pool_size gauge",
		"test_pool_size 2.5",
		"# HELP test_latency Latency in fake units.",
		"# TYPE test_latency histogram",
		`test_latency_bucket{le="1"} 1`,
		`test_latency_bucket{le="10"} 2`,
		`test_latency_bucket{le="100"} 3`,
		`test_latency_bucket{le="+Inf"} 4`,
		"test_latency_sum 555",
		"test_latency_count 4",
		"",
	}, "\n")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestParseTextRoundTrip feeds the writer's output back through the
// parser — the pair is what loadgen.MetricsDelta relies on to diff
// server metrics.
func TestParseTextRoundTrip(t *testing.T) {
	r := New()
	r.CounterVec("rt_total", "Total.", "op").With("a").Add(42)
	r.Histogram("rt_lat", "Lat.", Units, []float64{10}).Observe(4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	for key, want := range map[string]float64{
		`rt_total{op="a"}`:       42,
		`rt_lat_bucket{le="10"}`: 1,
		`rt_lat_count`:           1,
		`rt_lat_sum`:             4,
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v (parsed %v)", key, got[key], want, got)
		}
	}

	if _, err := ParseText(strings.NewReader("not a metric line\n")); err == nil {
		t.Errorf("ParseText accepted a malformed line")
	}
}

// TestHandler covers the HTTP face: content type, method filtering.
func TestHandler(t *testing.T) {
	r := New()
	r.Counter("h_total", "Total.").Inc()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

// TestSeriesOverflow checks the cardinality clamp: combinations past
// maxSeries collapse into the "other" series instead of growing the
// map without bound.
func TestSeriesOverflow(t *testing.T) {
	r := New()
	v := r.CounterVec("of_total", "Total.", "who")
	for i := 0; i < maxSeries+50; i++ {
		v.With(string(rune('a'+i%26)) + string(rune('0'+i/26))).Inc()
	}
	f := v.f
	f.mu.Lock()
	n := len(f.series)
	f.mu.Unlock()
	if n > maxSeries+1 {
		t.Errorf("family grew to %d series, bound is %d+overflow", n, maxSeries)
	}
	if v.With(overflowLabel).Value() == 0 {
		t.Errorf("overflow series never used")
	}
}
