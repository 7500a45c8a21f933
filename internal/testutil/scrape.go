package testutil

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"pnptuner/internal/telemetry"
)

// sampleLine is the grammar of a /metrics sample line: name[{labels}]
// value. A line that breaks it breaks Prometheus scrapers.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// ScrapeText fetches base+"/metrics" and fails t unless every line
// other than a comment or a blank one is a well-formed sample line.
func ScrapeText(t testing.TB, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: status %d, %v", base, resp.StatusCode, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !sampleLine.MatchString(line) {
			t.Fatalf("%s/metrics: bad exposition line %q", base, line)
		}
	}
	return string(body)
}

// Scrape is ScrapeText parsed into a series → value map, keyed by the
// full series name with its labels.
func Scrape(t testing.TB, base string) map[string]float64 {
	t.Helper()
	m, err := telemetry.ParseText(strings.NewReader(ScrapeText(t, base)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
