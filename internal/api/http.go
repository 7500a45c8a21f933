package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"pnptuner/internal/telemetry"
)

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError renders info as the v1 error envelope under the code's
// canonical status.
func WriteError(w http.ResponseWriter, r *http.Request, info *ErrorInfo) {
	WriteErrorStatus(w, r, StatusFor(info.Code), info)
}

// WriteErrorStatus renders info as the v1 error envelope under status:
// request_id echoes the request's X-Request-ID, and a backpressure code
// carries the Retry-After hint so clients pace retries off the server's
// word instead of guessing with backoff. Only a proxy passing an
// upstream answer through needs a status other than StatusFor's.
func WriteErrorStatus(w http.ResponseWriter, r *http.Request, status int, info *ErrorInfo) {
	if secs := RetryAfterSecs(info.Code); secs > 0 {
		w.Header().Set(RetryAfterHeader, strconv.Itoa(secs))
	}
	WriteJSON(w, status, ErrorBody{Error: *info, RequestID: r.Header.Get(telemetry.TraceHeader)})
}

// ReadBody reads a request body of at most MaxRequestBytes into one
// buffer sized from a Content-Length within the limit, or else as
// io.ReadAll over http.MaxBytesReader does. A body shorter than its
// Content-Length fails with io.ErrUnexpectedEOF.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n > 0 && n <= MaxRequestBytes {
		body := make([]byte, n)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
}

// WithDeadline enforces the X-Deadline budget a client (or the gate)
// stamped on the request. A malformed header is a client error, not a
// silently unbounded request; an already-spent budget is shed before
// next runs (no body read, no routing, no batcher admission); a live
// one becomes the request context's deadline, so every downstream
// check — batcher queueing, measured runs, each proxied attempt, which
// re-stamps it relative — observes it for free.
func WithDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remaining, ok, err := ParseDeadline(r.Header.Get(DeadlineHeader))
		if err != nil {
			WriteError(w, r, Errorf(CodeBadRequest, "%v", err))
			return
		}
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		if remaining <= 0 {
			WriteError(w, r, Errorf(CodeDeadlineExceeded,
				"request budget already spent (%s %s)", DeadlineHeader, r.Header.Get(DeadlineHeader)))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), remaining)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
