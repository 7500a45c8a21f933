package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// resultSet is one `-workload all` pass: every workload's end-to-end
// and per-layer metrics from one tree on one box.
type resultSet struct {
	Header    setHeader                   `json:"header"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type setHeader struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	NProc   int     `json:"nproc"`
	Go      string  `json:"go"`
	CPU     string  `json:"cpu"`
}

type workloadResults struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

func newResultSet(cfg runConfig) *resultSet {
	return &resultSet{
		Header: setHeader{
			Seed: cfg.seed, Seconds: cfg.scale.seconds,
			NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: cpuModel(),
		},
		Workloads: map[string]*workloadResults{},
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// add files one run's output — its last line is the result object —
// under the workload, as end-to-end or per-layer metrics by which
// names it carries.
func (s *resultSet) add(workload string, stdout []byte) error {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	w := s.Workloads[workload]
	if w == nil {
		w = &workloadResults{}
		s.Workloads[workload] = w
	}
	if _, ok := r.Metrics[endToEndSpecs[0].Name]; ok {
		w.EndToEnd, w.Attempted, w.Failed = r.Metrics, r.Attempted, r.Failed
	} else {
		w.PerLayer = r.Metrics
	}
	return nil
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// benchmarkFile is the part of BENCHMARK.json agree needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agree compares two result sets of the same tree metric by metric: for
// every workload and end-to-end metric the two values may differ by at
// most the metric's bound (as a share of the smaller), and the op
// counts must match with nothing failed. It prints each workload's
// worst difference as a ratio of its bound and reports whether every
// ratio is at most 1.
func agree(w io.Writer, pathA, pathB, benchmarkJSON string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}

	all := true
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			return false, fmt.Errorf("%s has no workload %s", pathB, name)
		}
		worst, worstName := 0.0, ""
		for _, m := range bf.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			ratio := relDiff(va, vb) / m.Bound
			fmt.Fprintf(w, "%-13s %-20s %12.4f %12.4f  %5.1f%% of bound\n", name, m.Name, va, vb, 100*ratio)
			if ratio > worst {
				worst, worstName = ratio, m.Name
			}
		}
		verdict := "agree"
		switch {
		case wa.Attempted != wb.Attempted || wa.Failed != 0 || wb.Failed != 0:
			verdict = fmt.Sprintf("DISAGREE: attempted %d vs %d, failed %d vs %d", wa.Attempted, wb.Attempted, wa.Failed, wb.Failed)
			all = false
		case worst > 1:
			verdict = "DISAGREE"
			all = false
		}
		fmt.Fprintf(w, "%-13s worst %s at %.2f× its bound: %s\n\n", name, worstName, worst, verdict)
	}
	return all, nil
}

// relDiff is |a−b| as a share of the smaller magnitude.
func relDiff(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}
