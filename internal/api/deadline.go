package api

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// DeadlineHeader carries a request's remaining time budget across hops
// as fractional milliseconds (e.g. "1500" or "250.5"). The value is
// relative — each hop re-stamps it from its own context deadline just
// before sending — so propagation never depends on synchronized clocks.
// A server receiving it derives a context deadline for all downstream
// work (batcher admission, measured runs, proxied attempts); a value
// that has already reached zero is shed before any work with
// CodeDeadlineExceeded.
const DeadlineHeader = "X-Deadline"

// RetryAfterHeader is the standard backpressure hint emitted alongside
// retryable 429/503 responses (CodeQueueFull, CodeOverloaded,
// CodeUnavailable, CodeNoReplica): how many seconds the client should
// wait before retrying. The SDK honors it over its own exponential
// backoff.
const RetryAfterHeader = "Retry-After"

// FormatDeadline renders a remaining budget for DeadlineHeader.
func FormatDeadline(remaining time.Duration) string {
	ms := float64(remaining) / float64(time.Millisecond)
	return strconv.FormatFloat(ms, 'f', 3, 64)
}

// ParseDeadline reads a DeadlineHeader value back into a remaining
// budget. ok is false when the header is absent (empty); a present but
// malformed value — NaN and ±Inf included — is an error so a garbled
// budget fails loudly instead of silently serving without one. A budget
// past what a Duration holds saturates at ±math.MaxInt64 ns rather than
// wrapping, and a positive one never reads as spent: a generous budget
// must not be shed as an exhausted one.
func ParseDeadline(value string) (remaining time.Duration, ok bool, err error) {
	if value == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseFloat(value, 64)
	if err == nil && (math.IsNaN(ms) || math.IsInf(ms, 0)) {
		err = errors.New("not a finite number")
	}
	if err != nil {
		return 0, false, fmt.Errorf("api: malformed %s %q: %w", DeadlineHeader, value, err)
	}
	switch ns := ms * float64(time.Millisecond); {
	case ns >= math.MaxInt64:
		return math.MaxInt64, true, nil
	case ns <= -math.MaxInt64:
		return -math.MaxInt64, true, nil
	case ns > 0 && ns < 1:
		return 1, true, nil
	default:
		return time.Duration(ns), true, nil
	}
}

// RetryAfterSecs returns the Retry-After hint (in seconds) a response
// with the given error code should carry, or 0 when the code is not a
// backpressure signal. Queue-full and overload clear fastest; a
// draining or replica-less server needs longer.
func RetryAfterSecs(code string) int {
	switch code {
	case CodeQueueFull, CodeOverloaded:
		return 1
	case CodeUnavailable, CodeNoReplica:
		return 2
	}
	return 0
}
