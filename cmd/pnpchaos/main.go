// Command pnpchaos is a standalone fault-injecting reverse proxy: it
// sits on the network path to a pnpserve replica or a pnpgate and
// injects latency, abrupt connection errors, black-hole partitions, and
// bandwidth caps, deterministically from a seed. A manual game day puts
// one in front of each replica and checks the fleet's client-visible
// behavior stays inside the SLO envelope; testutil.WithChaos does the
// same in process.
//
// Usage:
//
//	pnpchaos -addr :9080 -target http://127.0.0.1:8080 -faults latency=20ms,jitter=5ms,errors=0.05
//	pnpchaos -addr :9081 -target http://127.0.0.1:8081 -faults partition
//	pnpchaos -addr :9082 -target http://127.0.0.1:8082 -faults none -route /v1/predict=latency=50ms
//
// Injected errors are connection aborts, never synthesized HTTP bodies:
// the caller sees the transport failure a crashed server produces, which
// is what feeds circuit breakers and failover. Injection counters are
// printed on SIGINT/SIGTERM.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pnptuner/internal/chaos"
)

// routeFlags collects repeated -route prefix=faultspec overrides.
type routeFlags []string

func (r *routeFlags) String() string     { return strings.Join(*r, "; ") }
func (r *routeFlags) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	addr := flag.String("addr", ":9080", "listen address")
	target := flag.String("target", "", "base URL the proxy forwards to")
	faultSpec := flag.String("faults", "none", "default fault mix, e.g. latency=20ms,jitter=5ms,errors=0.05,partition,bw=65536")
	seed := flag.Int64("seed", 1, "rng seed; the same seed over the same request sequence injects the same faults")
	var routes routeFlags
	flag.Var(&routes, "route", "per-path override as prefix=faultspec, e.g. /v1/predict=errors=0.1 (repeatable; longest prefix wins)")
	flag.Parse()

	if *target == "" {
		fmt.Fprintln(os.Stderr, "pnpchaos: -target is required")
		os.Exit(1)
	}
	proxy, err := chaos.New(*target, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpchaos: %v\n", err)
		os.Exit(1)
	}
	faults, err := chaos.ParseFaults(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnpchaos: %v\n", err)
		os.Exit(1)
	}
	proxy.SetFaults(faults)
	for _, r := range routes {
		prefix, spec, ok := strings.Cut(r, "=")
		if !ok || !strings.HasPrefix(prefix, "/") {
			fmt.Fprintf(os.Stderr, "pnpchaos: -route %q: want /prefix=faultspec\n", r)
			os.Exit(1)
		}
		rf, err := chaos.ParseFaults(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnpchaos: -route %q: %v\n", r, err)
			os.Exit(1)
		}
		proxy.SetRoute(prefix, rf)
		log.Printf("route %s injects %s", prefix, rf)
	}

	log.Printf("pnpchaos listening on %s -> %s injecting %s (seed %d)", *addr, *target, faults, *seed)
	srv := &http.Server{Addr: *addr, Handler: proxy}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		stats, _ := json.Marshal(proxy.Stats())
		log.Printf("stats %s", stats)
		srv.Close()
	}()

	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pnpchaos: %v\n", err)
		os.Exit(1)
	}
	<-done
}
