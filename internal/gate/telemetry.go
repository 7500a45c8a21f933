package gate

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"pnptuner/internal/api"
	"pnptuner/internal/telemetry"
)

// gateTelemetry is the gate's observability plane: its own metrics
// registry (served at /metrics) and span recorder (served at
// /v1/traces/{id}). The traffic counters live as fields on Gate itself;
// this bundle owns the scrape surface and the breaker-state sampler.
type gateTelemetry struct {
	tel     *telemetry.Registry
	rec     *telemetry.Recorder
	breaker *telemetry.GaugeVec // per replica index: 0 down, 1 half-open, 2 up
}

// newGateTelemetry builds the registry and the gate's counter handles,
// returning both (the counters are installed as Gate fields so call
// sites pay one atomic add).
func newGateTelemetry() *gateTelemetry {
	tel := telemetry.New()
	return &gateTelemetry{
		tel: tel,
		rec: telemetry.NewRecorder(0, 0),
		breaker: tel.GaugeVec("pnpgate_replica_state",
			"Replica circuit-breaker state by stable replica index: 0 down, 1 half-open, 2 up.",
			"replica"),
	}
}

// observeTracker samples the circuit-breaker states into the breaker
// gauge at every scrape — states are tracker-owned, so sampling beats
// double-tracking every transition.
func (gt *gateTelemetry) observeTracker(t *Tracker) {
	gt.tel.OnScrape(func() {
		for _, rs := range t.Snapshot() {
			var v int64
			switch rs.State {
			case api.ReplicaUp:
				v = 2
			case api.ReplicaHalfOpen:
				v = 1
			}
			gt.breaker.With(strconv.Itoa(rs.Index)).Set(v)
		}
	})
}

// SetTraceLogging samples every Nth request's root span into slog
// (0 disables) — the pnpgate -trace-log flag.
func (g *Gate) SetTraceLogging(every int) {
	g.tele.rec.SetLogging(slog.Default(), every)
}

// handleTrace serves GET /v1/traces/{id}: the gate-side span timeline of
// one request. The same ID on a replica's /v1/traces/{id} shows the
// downstream half.
func (g *Gate) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, r, api.Errorf(api.CodeMethodNotAllowed, "traces require GET"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, api.PathTraces+"/")
	if id == "" || strings.Contains(id, "/") {
		api.WriteError(w, r, api.Errorf(api.CodeNotFound, "no such route: %s", r.URL.Path))
		return
	}
	tr, ok := g.tele.rec.Get(id)
	if !ok {
		api.WriteError(w, r, api.Errorf(api.CodeNotFound,
			"no trace %q (unknown, or evicted from the bounded trace window)", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, tr)
}
