package telemetry

import (
	"net/http"
	"time"
)

// routeHelp is the HELP text of each serving tier's route families, by
// family prefix: the replica's (pnp) and the gate's (pnpgate) were
// published with different wording, and scrapers already see it.
var routeHelp = map[string]struct{ reqs, errs, dur string }{
	"pnp": {
		"HTTP requests served, by mux route pattern.",
		"HTTP responses with status >= 400, by mux route pattern.",
		"HTTP request latency, by mux route pattern.",
	},
	"pnpgate": {
		"HTTP requests served by the gate, by mux route pattern.",
		"Gate HTTP responses with status >= 400, by mux route pattern.",
		"Gate HTTP request latency, by mux route pattern.",
	},
}

// RouteMetrics instruments a server's routes as the
// <prefix>_http_requests_total, <prefix>_http_errors_total and
// <prefix>_http_request_duration_seconds families, labeled by mux route
// pattern (never the raw path, so cardinality is fixed). A nil
// *RouteMetrics instruments nothing.
type RouteMetrics struct {
	reqs, errs *CounterVec
	dur        *HistogramVec
}

// NewRouteMetrics registers the route families under prefix in reg; a
// nil reg yields a nil *RouteMetrics.
func NewRouteMetrics(reg *Registry, prefix string) *RouteMetrics {
	if reg == nil {
		return nil
	}
	help := routeHelp[prefix]
	return &RouteMetrics{
		reqs: reg.CounterVec(prefix+"_http_requests_total", help.reqs, "route"),
		errs: reg.CounterVec(prefix+"_http_errors_total", help.errs, "route"),
		dur: reg.HistogramVec(prefix+"_http_request_duration_seconds", help.dur,
			Seconds, DurationBuckets, "route"),
	}
}

// Wrap instruments h under the route label. The per-route handles
// resolve here, once, so the request path pays atomics, not lookups.
func (m *RouteMetrics) Wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	if m == nil {
		return h
	}
	reqC, errC, durH := m.reqs.With(route), m.errs.With(route), m.dur.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		durH.ObserveDuration(time.Since(start))
		reqC.Inc()
		if sw.status >= 400 {
			errC.Inc()
		}
	}
}

// statusWriter records the response status for the middleware that
// counts or traces it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
