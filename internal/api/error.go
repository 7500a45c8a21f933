package api

import (
	"errors"
	"fmt"
	"net/http"
)

// Stable machine-readable error codes. Codes are part of the v1
// contract: clients switch on them, messages are for humans and may
// change freely.
const (
	// CodeBadRequest: the request body or a field failed validation.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: wrong HTTP method for the route.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: no such route.
	CodeNotFound = "not_found"
	// CodeModelNotFound: the (machine, scenario, objective) model is not
	// in the store and the server has no trainer to make it.
	CodeModelNotFound = "model_not_found"
	// CodeRegionNotFound: the tune region is not a corpus region ID.
	CodeRegionNotFound = "region_not_found"
	// CodeGraphTooLarge: the prediction graph or request body exceeds
	// the contract ceilings.
	CodeGraphTooLarge = "graph_too_large"
	// CodeBudgetExceeded: the tune budget is outside [0, MaxTuneBudget].
	CodeBudgetExceeded = "budget_exceeded"
	// CodeJobNotFound: no such job (never existed, or GC'd after TTL).
	CodeJobNotFound = "job_not_found"
	// CodeQueueFull: the async job queue is at capacity; retry later.
	CodeQueueFull = "queue_full"
	// CodeOverloaded: the server shed the request before doing any work
	// (predict queue at depth, or the route's concurrency limit reached);
	// nothing happened and any method may retry after Retry-After.
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded: the request's time budget (X-Deadline header
	// or context deadline) ran out before the work could finish; the
	// remaining work was shed or abandoned.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeUnavailable: the server is shutting down or the model's
	// batcher is draining; safe to retry.
	CodeUnavailable = "unavailable"
	// CodeNoReplica: the gate has no healthy replica for the key (all
	// marked down, or the ring is empty); safe to retry once replicas
	// recover.
	CodeNoReplica = "no_replica"
	// CodeReplicaUnavailable: the gate picked a replica but every
	// eligible one failed at the transport level before answering.
	CodeReplicaUnavailable = "replica_unavailable"
	// CodeInternal: a server-side failure (model forward pass, dataset
	// build); not the client's fault.
	CodeInternal = "internal"
)

// StatusFor maps an error code to its canonical HTTP status. Unknown
// codes map to 500 so a server bug can never read as client error.
func StatusFor(code string) int {
	switch code {
	case CodeBadRequest, CodeBudgetExceeded:
		return http.StatusBadRequest
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeNotFound, CodeModelNotFound, CodeRegionNotFound, CodeJobNotFound:
		return http.StatusNotFound
	case CodeGraphTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeUnavailable, CodeNoReplica, CodeOverloaded:
		return http.StatusServiceUnavailable
	case CodeReplicaUnavailable:
		return http.StatusBadGateway
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// ErrorInfo is the machine-readable half of every non-2xx response.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error, so an ErrorInfo can travel through Go error
// chains (the client SDK wraps one in every API failure).
func (e *ErrorInfo) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errorf builds an ErrorInfo with a formatted message.
func Errorf(code, format string, args ...any) *ErrorInfo {
	return &ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)}
}

// DecodeError classifies a request body that failed to read or decode:
// a decoder's own *ErrorInfo is kept, a body over MaxRequestBytes is
// CodeGraphTooLarge (the graph is what makes a body big), anything else
// CodeBadRequest.
func DecodeError(err error) *ErrorInfo {
	var info *ErrorInfo
	if errors.As(err, &info) {
		return info
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return Errorf(CodeGraphTooLarge, "request body over %d bytes", MaxRequestBytes)
	}
	return Errorf(CodeBadRequest, "decode request: %v", err)
}

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
	// RequestID echoes the X-Request-ID the failing request was served
	// under, for log correlation.
	RequestID string `json:"request_id,omitempty"`
}
