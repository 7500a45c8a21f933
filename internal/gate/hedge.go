package gate

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/telemetry"
)

// latencyWindow is how many recent predict latencies the adaptive hedge
// trigger keeps; hedgeMinSamples is how many it needs before trusting
// its p99 (hedging off a handful of observations fires on noise).
const (
	latencyWindow   = 512
	hedgeMinSamples = 20
)

// latencyTracker is a fixed-size ring of recent successful predict
// latencies, queried for the tail quantile the hedge trigger fires at.
type latencyTracker struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

func newLatencyTracker(window int) *latencyTracker {
	return &latencyTracker{buf: make([]time.Duration, window)}
}

// Record appends one observed latency, evicting the oldest past the
// window.
func (t *latencyTracker) Record(d time.Duration) {
	t.mu.Lock()
	t.buf[t.next] = d
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// P99 returns the window's 99th-percentile latency, or false until
// hedgeMinSamples observations have accumulated.
func (t *latencyTracker) P99() (time.Duration, bool) {
	t.mu.Lock()
	n := t.next
	if t.full {
		n = len(t.buf)
	}
	if n < hedgeMinSamples {
		t.mu.Unlock()
		return 0, false
	}
	s := make([]time.Duration, n)
	copy(s, t.buf[:n])
	t.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(n*99+99)/100-1], true
}

// hedgeAfter returns how long the first predict attempt may run before a
// hedge fires at the next replica, or 0 when hedging should not happen
// (disabled, or the adaptive trigger has too few observations to place
// the tail).
func (g *Gate) hedgeAfter() time.Duration {
	if g.noHedge {
		return 0
	}
	if g.hedgeDelay > 0 {
		return g.hedgeDelay
	}
	p99, ok := g.latency.P99()
	if !ok {
		return 0
	}
	if p99 < time.Millisecond {
		p99 = time.Millisecond
	}
	return p99
}

// predictOutcome is one attempt's result inside hedgedPredict.
type predictOutcome struct {
	resp    *api.PredictResponse
	err     error
	replica int
	hedged  bool
}

// hedgedPredict serves one idempotent predict with tail-latency hedging:
// the key's owner gets the request first, and if it has not answered
// within the hedge delay (the observed p99, or the configured override)
// the next replica in preference order gets a concurrent copy. First
// success wins and cancels the rest; failures walk further down the
// preference order exactly like route(). Predicts are pure compute, so
// duplicating one is always safe — the only cost is the second replica's
// forward pass.
//
// Two guards keep hedging honest: a replica whose attempt dies because
// the gate cancelled it (a sibling won) must NOT feed the circuit
// breaker — it did nothing wrong; and a cold key never hedges — the
// first request may be training the model, and a hedge would start a
// second training on the next replica, exactly what the warm-up single
// flight exists to prevent.
func (g *Gate) hedgedPredict(ctx context.Context, key string, body []byte) (*api.PredictResponse, error) {
	order := g.ring.Lookup(key)
	owner := order[0]

	// raceCtx cancels every still-running attempt the moment a winner
	// (or a terminal failure) is decided.
	raceCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan predictOutcome, len(order))
	launch := func(i int, hedged bool) bool {
		release, ok := g.tracker.Acquire(i)
		if !ok {
			return false
		}
		go func() {
			start := time.Now()
			var resp *api.PredictResponse
			err := g.attempt(raceCtx, i, func(ctx context.Context, _ int, c *client.Client) error {
				r, err := c.PredictBody(ctx, body)
				if err != nil {
					return err
				}
				resp = r
				return nil
			})
			release()
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			g.tele.rec.Add(telemetry.TraceID(ctx), "gate.attempt", start, time.Since(start),
				"replica", strconv.Itoa(i), "outcome", outcome, "hedged", strconv.FormatBool(hedged))
			switch {
			case err == nil:
				g.latency.Record(time.Since(start))
				g.tracker.RecordSuccess(i)
			case client.Classify(err) == client.FailTransport && raceCtx.Err() == nil:
				// Transport failure on a live race: the replica's fault.
				// With raceCtx done the failure is our own cancellation
				// (a sibling won or the client left) — not breaker food.
				g.tracker.RecordFailure(i)
			}
			results <- predictOutcome{resp: resp, err: err, replica: i, hedged: hedged}
		}()
		return true
	}

	// nextAttempt launches the next admissible candidate in preference
	// order; false when the order is exhausted.
	next := 0
	nextAttempt := func(hedged bool) bool {
		for next < len(order) {
			i := order[next]
			next++
			if launch(i, hedged) {
				return true
			}
		}
		return false
	}

	if !nextAttempt(false) {
		return nil, gateErr(api.CodeNoReplica, "no healthy replica for this model key (%d configured, all down)", len(g.replicas))
	}

	var hedgeTimer <-chan time.Time
	if delay := g.hedgeAfter(); delay > 0 && g.isWarm(key) {
		hedgeTimer = time.After(delay)
	}

	pending := 1
	var lastErr error
	for pending > 0 {
		select {
		case out := <-results:
			pending--
			if out.err == nil {
				cancelAll()
				if out.replica != owner {
					g.failovers.Inc()
				}
				if out.hedged {
					g.hedgeWins.Inc()
				}
				return out.resp, nil
			}
			if ctx.Err() != nil {
				cancelAll()
				return nil, budgetErr(ctx, out.err)
			}
			lastErr = out.err
			if !g.policy.ShouldRetry(client.Classify(out.err), true) {
				// Terminal (4xx-class): deterministic, every sibling will
				// answer the same — no point waiting for them.
				cancelAll()
				return nil, out.err
			}
			if nextAttempt(false) {
				g.retries.Inc()
				pending++
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if nextAttempt(true) {
				g.hedges.Inc()
				pending++
			}
		case <-ctx.Done():
			cancelAll()
			return nil, budgetErr(ctx, lastErr)
		}
	}
	// Exhausted every admissible replica; mirror route()'s exhaustion
	// contract (API errors pass through, transport becomes the 502).
	var ae *client.APIError
	if errors.As(lastErr, &ae) {
		return nil, lastErr
	}
	return nil, gateErr(api.CodeReplicaUnavailable, "all replicas failed: %v", lastErr)
}

// isWarm reports whether the key has served at least one success (the
// warm-up single flight's notion of warm).
func (g *Gate) isWarm(key string) bool {
	g.warmMu.Lock()
	defer g.warmMu.Unlock()
	return g.warm[key]
}
