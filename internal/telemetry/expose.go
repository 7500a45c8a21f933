package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): families in registration order, series
// sorted by label values, histograms as cumulative le buckets plus
// _sum and _count. OnScrape hooks run first so sampled gauges are
// fresh.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	families := append([]*family{}, r.families...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	bw := bufio.NewWriter(w)
	for _, f := range families {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(bw, "%s %s\n", f.name, formatValue(f.fn()))
			continue
		}
		for _, s := range f.snapshot() {
			switch f.typ {
			case "histogram":
				writeHistogram(bw, f, s)
			default:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labelKeys, s.labelVals, "", 0), s.val.Load())
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: a cumulative count per
// ladder bound, the implicit +Inf bound, then _sum (in exposed units)
// and _count.
func writeHistogram(w io.Writer, f *family, s *series) {
	counts := make([]uint64, numBucket)
	total := s.hist.cumulative(counts)
	prefix := make([]uint64, numBucket+1) // running cumulative sum over fine buckets
	for i, c := range counts {
		prefix[i+1] = prefix[i] + c
	}
	for bi, bound := range f.bounds {
		var n uint64
		if idx := f.boundIdx[bi]; idx >= 0 {
			n = prefix[idx+1]
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelString(f.labelKeys, s.labelVals, "le", bound), n)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, infLabel(f.labelKeys, s.labelVals), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
		labelString(f.labelKeys, s.labelVals, "", 0), formatValue(float64(s.hist.Sum())*f.scale))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name,
		labelString(f.labelKeys, s.labelVals, "", 0), total)
}

// labelString renders {k="v",...}, appending le=bound when leKey is
// non-empty; no labels at all renders as the empty string.
func labelString(keys, vals []string, leKey string, bound float64) string {
	if len(keys) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		b.WriteString(formatValue(bound))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// infLabel is labelString with le="+Inf" (which formatValue cannot
// produce).
func infLabel(keys, vals []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if len(keys) > 0 {
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the exposition at GET /metrics. The endpoint is
// deliberately unversioned (outside /v1/): it is an operational
// surface scraped by monitoring, not part of the API contract.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// ParseText reads a Prometheus text exposition into a flat
// series → value map, keyed by the full series name including labels
// (`pnp_http_requests_total{route="/v1/predict"}`). Comment and blank
// lines are skipped; any other malformed line is an error. The parser
// is the inverse of WritePrometheus and is what loadgen.ScrapeMetrics
// uses to diff a target's /metrics before and after a run.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cut := strings.LastIndexByte(text, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("telemetry: exposition line %d malformed: %q", line, text)
		}
		v, err := strconv.ParseFloat(text[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: exposition line %d value: %v", line, err)
		}
		out[text[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
