package api

import (
	"math"
	"strconv"
	"testing"
	"time"
)

// deadlineCases are ParseDeadline's table, and FuzzParseDeadline's seeds.
var deadlineCases = []struct {
	value     string
	remaining time.Duration
	ok, err   bool
}{
	{"", 0, false, false},
	{"250.5", 250500 * time.Microsecond, true, false},
	{"-1", -time.Millisecond, true, false},
	{"abc", 0, false, true},
	{"NaN", 0, false, true},
	{"Inf", 0, false, true},
	{"1e300", math.MaxInt64, true, false},
	{"-1e300", -math.MaxInt64, true, false},
}

func TestParseDeadline(t *testing.T) {
	for _, tc := range deadlineCases {
		remaining, ok, err := ParseDeadline(tc.value)
		if remaining != tc.remaining || ok != tc.ok || (err != nil) != tc.err {
			t.Errorf("ParseDeadline(%q) = %v, %v, %v; want %v, %v, error %v",
				tc.value, remaining, ok, err, tc.remaining, tc.ok, tc.err)
		}
	}
	want := 1500*time.Millisecond + 250*time.Microsecond
	if got, ok, err := ParseDeadline(FormatDeadline(want)); got != want || !ok || err != nil {
		t.Errorf("FormatDeadline round trip: %q parses to %v, %v, %v; want %v",
			FormatDeadline(want), got, ok, err, want)
	}
}

// FuzzParseDeadline: no header value panics the parser, and a value
// that reads as a positive finite number of milliseconds is never a
// spent budget.
func FuzzParseDeadline(f *testing.F) {
	for _, tc := range deadlineCases {
		f.Add(tc.value)
	}
	f.Fuzz(func(t *testing.T, value string) {
		remaining, ok, err := ParseDeadline(value)
		if err != nil || !ok {
			return
		}
		if ms, perr := strconv.ParseFloat(value, 64); perr == nil && ms > 0 && !math.IsInf(ms, 0) && remaining <= 0 {
			t.Fatalf("ParseDeadline(%q) = %v: a positive budget read as spent", value, remaining)
		}
	})
}
