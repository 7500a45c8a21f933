package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Trace
// is the replayed request's index (0 for set-up and micro spans);
// Parent is the ID of the enclosing rung's span, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder's epoch
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine at a time — set-up and the serial ladder — never from
// the measured phase, so it takes no lock. A nil recorder records
// nothing, which is how the ladder is replayed untraced to price the
// recording itself.
type recorder struct {
	epoch time.Time
	spans []span
	// meter, when set, brings durations to reference speed (calib.go).
	// The spans themselves, and spans.jsonl, stay as measured.
	meter *speedometer
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1).
func (r *recorder) begin(name string, trace, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name,
		StartNs: int64(time.Since(r.epoch)),
	})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNs = int64(time.Since(r.epoch))
}

// durations returns the duration of every span called name, in
// recording order — at reference speed if the recorder has a meter.
func (r *recorder) durations(name string) []time.Duration {
	var speed *speedCurve
	if r.meter != nil {
		speed = r.meter.curve()
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if speed == nil {
			out = append(out, s.dur())
		} else {
			out = append(out, speed.atRef(r.epoch.Add(time.Duration(s.StartNs)), r.epoch.Add(time.Duration(s.EndNs))))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the durations of its
// direct children, indexed by span ID − 1.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent > 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// writeJSONL writes one span per line to path, creating its directory.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
