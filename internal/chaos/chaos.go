// Package chaos is a fault-injecting reverse proxy for resilience
// testing: it sits between the gate and a replica and injects the
// failure modes distributed serving actually meets — added latency,
// abruptly killed connections and black-holed requests —
// deterministically, from a seed, so a chaos run is reproducible.
//
// Injected errors are connection aborts, not synthesized HTTP error
// bodies, on purpose: the client must see a transport-level failure
// (the kind that feeds circuit breakers and fails over to the next
// replica), not a well-formed response the registry never sent.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is the proxy's injected failure mix. The zero value injects
// nothing.
type Faults struct {
	// Latency is added to every request before it is forwarded; Jitter
	// adds a uniform [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration
	// ErrorRate is the probability ([0,1]) a request's connection is
	// abruptly closed instead of forwarded — a transport failure, never
	// a well-formed error body.
	ErrorRate float64
	// Partition black-holes every request: held until the client gives
	// up (its context/timeout), then the connection is closed. This is
	// what a network partition looks like from the caller's side —
	// silence, not refusal.
	Partition bool
}

// Stats counts what the proxy has injected — the ground truth a chaos
// suite checks its observed failure rates against.
type Stats struct {
	Forwarded  int64
	Delayed    int64
	Errors     int64
	Partitions int64
}

// Proxy is the fault-injecting reverse proxy: one fault mix for every
// request, deterministic randomness.
type Proxy struct {
	rp *httputil.ReverseProxy

	mu     sync.Mutex
	rng    *rand.Rand
	faults Faults

	forwarded  atomic.Int64
	delayed    atomic.Int64
	errors     atomic.Int64
	partitions atomic.Int64
}

// New builds a proxy forwarding to target (a base URL), injecting
// nothing until SetFaults. seed fixes the randomness stream:
// the same seed over the same request sequence injects the same faults.
func New(target string, seed int64) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("chaos: target %q: %v", target, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("chaos: target %q is not an absolute URL", target)
	}
	p := &Proxy{
		rp:  httputil.NewSingleHostReverseProxy(u),
		rng: rand.New(rand.NewSource(seed)),
	}
	// A dead target must look like a dead target: abort the connection
	// (transport failure) instead of the default synthesized 502 body,
	// which a client would misread as a live-but-failing server.
	p.rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, _ error) {
		abort(w)
	}
	return p, nil
}

// SetFaults replaces the fault mix.
func (p *Proxy) SetFaults(f Faults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Stats snapshots the injection counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Forwarded:  p.forwarded.Load(),
		Delayed:    p.delayed.Load(),
		Errors:     p.errors.Load(),
		Partitions: p.partitions.Load(),
	}
}

// faultsFor reads the fault mix and rolls the request's dice under one
// lock, keeping the random stream deterministic under
// concurrency (stream order still depends on request arrival order;
// determinism is per-sequence, which is what reproducibility needs).
func (p *Proxy) faultsFor() (f Faults, inject bool, jitter time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f = p.faults
	if f.ErrorRate > 0 && p.rng.Float64() < f.ErrorRate {
		inject = true
	}
	if f.Jitter > 0 {
		jitter = time.Duration(p.rng.Int63n(int64(f.Jitter)))
	}
	return f, inject, jitter
}

// ServeHTTP injects the faults, then forwards.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f, inject, jitter := p.faultsFor()

	if f.Partition {
		// Black hole: hold the request until the caller stops waiting.
		// The close afterwards is what the caller's transport reports —
		// never a response. The body must be drained first: with unread
		// body bytes the server never starts its background connection
		// read, so a client disconnect would not cancel r.Context() and
		// this goroutine would hang past the caller's timeout.
		p.partitions.Add(1)
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		abort(w)
		return
	}
	if delay := f.Latency + jitter; delay > 0 {
		p.delayed.Add(1)
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			abort(w)
			return
		}
	}
	if inject {
		p.errors.Add(1)
		abort(w)
		return
	}
	p.forwarded.Add(1)
	p.rp.ServeHTTP(w, r)
}

// abort kills the client connection without writing a response: the
// caller sees a transport failure (EOF / connection reset), the same
// signal a crashed server produces.
func abort(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	// No hijack support (e.g. HTTP/2): abort the handler, which tears
	// down the stream without a response.
	panic(http.ErrAbortHandler)
}
