package testutil_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"pnptuner/internal/testutil"
)

// fatalRecorder stands in for t so a test can watch Scrape fail: Fatal
// and Fatalf record the failure and end the calling goroutine, as t's do.
type fatalRecorder struct {
	testing.TB
	failed bool
}

func (r *fatalRecorder) Helper()               {}
func (r *fatalRecorder) Fatal(...any)          { r.failed = true; runtime.Goexit() }
func (r *fatalRecorder) Fatalf(string, ...any) { r.failed = true; runtime.Goexit() }

// TestScrapeRejectsMalformedLine: a sample line outside the
// name[{labels}] value grammar fails the scrape, even one that
// telemetry.ParseText would read.
func TestScrapeRejectsMalformedLine(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "# TYPE ok counter\nok 1\nbad-name 2\n")
	}))
	defer ts.Close()
	rec := &fatalRecorder{TB: t}
	done := make(chan struct{})
	go func() { defer close(done); testutil.Scrape(rec, ts.URL) }()
	<-done
	if !rec.failed {
		t.Fatal("Scrape accepted a malformed exposition line")
	}
}
