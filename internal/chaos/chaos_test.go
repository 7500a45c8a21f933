package chaos

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func backend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Backend", "yes")
		io.WriteString(w, `{"ok":true}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func startProxy(t *testing.T, target string, seed int64) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := New(target, seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func TestProxyForwardsCleanly(t *testing.T) {
	be := backend(t)
	_, srv := startProxy(t, be.URL, 1)
	resp, err := http.Get(srv.URL + "/v1/predict")
	if err != nil {
		t.Fatalf("GET through clean proxy: %v", err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Backend") != "yes" {
		t.Fatal("response did not come from the backend")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("unexpected body %q", body)
	}
}

func TestProxyInjectsLatency(t *testing.T) {
	be := backend(t)
	p, srv := startProxy(t, be.URL, 1)
	p.SetFaults(Faults{Latency: 50 * time.Millisecond})
	start := time.Now()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("latency not injected: %v", elapsed)
	}
	if p.Stats().Delayed != 1 {
		t.Fatalf("delayed counter = %d, want 1", p.Stats().Delayed)
	}
}

func TestProxyInjectsTransportErrors(t *testing.T) {
	be := backend(t)
	p, srv := startProxy(t, be.URL, 42)
	p.SetFaults(Faults{ErrorRate: 1})
	resp, err := http.Get(srv.URL + "/")
	if err == nil {
		resp.Body.Close()
		t.Fatal("expected a transport error, got a response")
	}
	// The failure must be transport-level (EOF/reset), never an HTTP
	// status — that is what makes injected errors fail over cleanly.
	if p.Stats().Errors != 1 {
		t.Fatalf("errors counter = %d, want 1", p.Stats().Errors)
	}
}

func TestProxyErrorRateIsDeterministic(t *testing.T) {
	outcomes := func(seed int64) string {
		be := backend(t)
		p, srv := startProxy(t, be.URL, seed)
		p.SetFaults(Faults{ErrorRate: 0.5})
		var b strings.Builder
		c := srv.Client()
		for i := 0; i < 32; i++ {
			resp, err := c.Get(srv.URL + "/")
			if err != nil {
				b.WriteByte('x')
				continue
			}
			resp.Body.Close()
			b.WriteByte('.')
		}
		return b.String()
	}
	a, b := outcomes(7), outcomes(7)
	if a != b {
		t.Fatalf("same seed, different injection sequence:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "x") || !strings.Contains(a, ".") {
		t.Fatalf("rate 0.5 over 32 requests should mix outcomes: %s", a)
	}
}

func TestProxyPartitionBlackHoles(t *testing.T) {
	be := backend(t)
	p, srv := startProxy(t, be.URL, 1)
	p.SetFaults(Faults{Partition: true})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/", nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("partitioned request got a response")
	}
	// The caller's own timeout ends the wait — the proxy never answers.
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("partition answered after only %v; should hold until the client gives up", elapsed)
	}
	if p.Stats().Partitions != 1 {
		t.Fatalf("partitions counter = %d, want 1", p.Stats().Partitions)
	}
}
