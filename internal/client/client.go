// Package client is the typed Go SDK for the pnptuner v1 serving API:
// a thin, context-aware HTTP client over the shared wire contract
// (internal/api), so programs drive a remote pnpserve exactly like the
// in-process libraries — predictions, sync and async tuning sessions,
// job polling, model listings, and health.
//
// Every method takes a context and honours its deadline/cancellation.
// Transient failures are retried with exponential backoff up to the
// configured attempt count: a 503 unavailable response (a server
// draining a batcher or shutting down — answered before acting, so safe
// for every method) and, for idempotent methods only, connection-level
// errors (a broken connection after a POST may have already created a
// job, so POSTs never retry at the transport level). Every other
// non-2xx response surfaces as an *APIError carrying the server's
// stable error code.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/telemetry"
)

// Client talks to one pnpserve base URL. The zero value is not usable;
// construct with New.
type Client struct {
	base      string
	http      *http.Client
	retries   int
	retryWait time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient swaps the underlying HTTP client (custom transports,
// test doubles). The default has no client-side timeout: serving a cold
// model trains it, and per-call bounds belong to the caller's context.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithRetries sets how many times a transient failure (connection
// error, 503) is retried beyond the first attempt, and the initial
// backoff between attempts (doubled each retry). Default: 2 retries,
// 100ms.
func WithRetries(n int, wait time.Duration) Option {
	return func(c *Client) { c.retries, c.retryWait = n, wait }
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"). The version prefix is appended internally —
// pass the bare host base, not ".../v1".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		http:      &http.Client{},
		retries:   2,
		retryWait: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response: the server's stable error code plus
// the HTTP status it arrived under.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Info is the decoded error envelope (Code is one of the api.Code*
	// constants).
	Info api.ErrorInfo
	// RequestID is the correlation ID the failing request was served
	// under.
	RequestID string
	// RetryAfter is the server's Retry-After backpressure hint (zero
	// when the response carried none). The SDK's retry loop waits this
	// long instead of its exponential backoff when present.
	RetryAfter time.Duration
}

// Error renders the failure for logs.
func (e *APIError) Error() string {
	return fmt.Sprintf("pnpserve: %d %s: %s", e.Status, e.Info.Code, e.Info.Message)
}

// ErrorCode extracts the stable API error code from err, or "" when err
// is not an *APIError (connection failures, context cancellation).
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Info.Code
	}
	return ""
}

// IsCode reports whether err is an *APIError with the given code.
func IsCode(err error, code string) bool { return ErrorCode(err) == code }

// Predict asks for the model's recommended configurations for one
// program graph. The graph goes on the wire as it is, after the
// marshalled envelope, so Predict first checks that it is one JSON value
// (api.ValidJSON, the allocation-free skip the gate and the replica also
// run): a broken graph would break the whole body. Its schema is left
// to the replica, which decodes it anyway.
func (c *Client) Predict(ctx context.Context, req api.PredictRequest) (*api.PredictResponse, error) {
	graph := req.Graph
	req.Graph = nil // the envelope's last field: written as null, then replaced
	body, err := json.Marshal(req)
	if err == nil && len(graph) > 0 && !api.ValidJSON(graph) {
		err = errors.New("graph is not one JSON value")
	}
	if err != nil {
		return nil, fmt.Errorf("pnpserve: encode request: %w", err)
	}
	if len(graph) > 0 {
		body = append(append(body[:len(body)-len("null}")], graph...), '}')
	}
	return c.PredictBody(ctx, body)
}

// PredictBody is Predict for a request already encoded as JSON: body is
// sent verbatim, so a proxy can forward what its caller sent without
// decoding the graph.
func (c *Client) PredictBody(ctx context.Context, body []byte) (*api.PredictResponse, error) {
	var out api.PredictResponse
	if err := c.send(ctx, http.MethodPost, api.PathPredict, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tune runs one synchronous tuning session and blocks for its result.
// The Async flag is forced off; use TuneAsync for job submission.
func (c *Client) Tune(ctx context.Context, req api.TuneRequest) (*api.TuneResponse, error) {
	req.Async = false
	var out api.TuneResponse
	if err := c.do(ctx, http.MethodPost, api.PathTune, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TuneAsync submits a tuning session as a job and returns immediately
// with its handle; poll with Job or block with Wait. The finished job's
// Result is bit-identical to what Tune would have returned.
func (c *Client) TuneAsync(ctx context.Context, req api.TuneRequest) (*api.Job, error) {
	req.Async = true
	var out api.Job
	if err := c.do(ctx, http.MethodPost, api.PathTune, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job's current snapshot.
func (c *Client) Job(ctx context.Context, id string) (*api.Job, error) {
	var out api.Job
	if err := c.do(ctx, http.MethodGet, api.PathJobs+"/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob requests cancellation of a queued or running job and
// returns its snapshot. Cancelling a finished job is a no-op.
func (c *Client) CancelJob(ctx context.Context, id string) (*api.Job, error) {
	var out api.Job
	if err := c.do(ctx, http.MethodDelete, api.PathJobs+"/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListJobs returns every job the server retains, oldest first.
func (c *Client) ListJobs(ctx context.Context) ([]api.Job, error) {
	var out []api.Job
	if err := c.do(ctx, http.MethodGet, api.PathJobs, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Wait polls job id every poll interval (default 50ms when
// non-positive) until it reaches a terminal status or ctx expires. It
// returns the terminal snapshot; inspect Status for done vs failed vs
// cancelled.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*api.Job, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Terminal() {
			return job, nil
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return nil, fmt.Errorf("pnpserve: waiting for job %s: %w", id, ctx.Err())
		}
	}
}

// ModelBlob streams one model's serialized blob (the content-addressed
// registry wire format) from the server. id is the model's content
// address (api.ModelInfo.ID / registry Key.ID()). The caller owns the
// returned reader and must Close it; a missing model surfaces as an
// *APIError with code model_not_found. GET is idempotent, so transient
// failures retry per the policy table before the stream starts.
func (c *Client) ModelBlob(ctx context.Context, id string) (io.ReadCloser, error) {
	wait := c.retryWait
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(retryDelay(lastErr, wait)):
				wait *= 2
			case <-ctx.Done():
				return nil, fmt.Errorf("pnpserve: GET model blob: %w (last: %v)", ctx.Err(), lastErr)
			}
		}
		rc, class, err := c.blobOnce(ctx, id)
		if err == nil {
			return rc, nil
		}
		lastErr = err
		if !DefaultRetryPolicy().ShouldRetry(class, true) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

func (c *Client) blobOnce(ctx context.Context, id string) (io.ReadCloser, FailureClass, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+api.PathModelBlob(id), nil)
	if err != nil {
		return nil, FailOther, fmt.Errorf("pnpserve: build request: %w", err)
	}
	stampDeadline(ctx, req)
	stampTraceID(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, FailTransport, fmt.Errorf("pnpserve: GET %s: %w", api.PathModelBlob(id), err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp.Body, FailOther, nil
	}
	defer resp.Body.Close()
	apiErr := decodeAPIError(resp)
	return nil, Classify(apiErr), apiErr
}

// Model returns one model's detail: serving version, measurement-feed
// counters, in-flight canary, and version history. id is the model's
// content address (api.ModelInfo.ID).
func (c *Client) Model(ctx context.Context, id string) (*api.ModelDetail, error) {
	var out api.ModelDetail
	if err := c.do(ctx, http.MethodGet, api.PathModel(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListModels returns the registry's contents (cached and on-disk).
func (c *Client) ListModels(ctx context.Context) ([]api.ModelInfo, error) {
	var out []api.ModelInfo
	if err := c.do(ctx, http.MethodGet, api.PathModels, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health returns the server's liveness and traffic counters.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var out api.Health
	if err := c.do(ctx, http.MethodGet, api.PathHealthz, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GateHealth returns a pnpgate's healthz: the same endpoint as Health,
// decoded as the gate's cluster-view shape (replica states, failover
// counters) instead of a replica's model counters.
func (c *Client) GateHealth(ctx context.Context) (*api.GateHealth, error) {
	var out api.GateHealth
	if err := c.do(ctx, http.MethodGet, api.PathHealthz, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// stampDeadline propagates the caller's remaining time budget onto the
// wire: when ctx carries a deadline, the request gets an X-Deadline
// header with the budget left as of this attempt (re-stamped per retry,
// so the server always sees the truth, not the original allowance). A
// relative budget needs no clock synchronization between hops.
func stampDeadline(ctx context.Context, req *http.Request) {
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(api.DeadlineHeader, api.FormatDeadline(time.Until(dl)))
	}
}

// stampTraceID propagates the caller's trace ID onto the wire, so one
// X-Request-ID follows a request across hops — gate to replica, replica
// to peer on a blob fetch — and each hop's /v1/traces/{id} shows its
// share of the timeline. Without a traced context the header is left
// unset and the far side mints its own.
func stampTraceID(ctx context.Context, req *http.Request) {
	if id := telemetry.TraceID(ctx); id != "" {
		req.Header.Set(telemetry.TraceHeader, id)
	}
}

// retryDelay picks how long to wait before the next attempt: the
// server's Retry-After hint when the last failure carried one, the
// exponential-backoff step otherwise.
func retryDelay(lastErr error, backoff time.Duration) time.Duration {
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter
	}
	return backoff
}

// do runs one API call: marshal in, then send it.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("pnpserve: encode request: %w", err)
		}
	}
	return c.send(ctx, method, path, body, out)
}

// send retries transient failures of one encoded call per the
// RetryPolicy table and decodes out (or the error envelope).
func (c *Client) send(ctx context.Context, method, path string, body []byte, out any) error {
	idempotent := MethodIdempotent(method)
	wait := c.retryWait
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(retryDelay(lastErr, wait)):
				wait *= 2
			case <-ctx.Done():
				return fmt.Errorf("pnpserve: %s %s: %w (last: %v)", method, path, ctx.Err(), lastErr)
			}
		}
		class, err := c.once(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !DefaultRetryPolicy().ShouldRetry(class, idempotent) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// once performs a single HTTP exchange and classifies any failure for
// the retry table.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (FailureClass, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return FailOther, fmt.Errorf("pnpserve: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	stampDeadline(ctx, req)
	stampTraceID(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		// Connection-level failure: the request may have been processed
		// before the connection broke, so the table only re-sends
		// idempotent work. A 503 *response* (below) is different: the
		// server answered before acting, so every method retries on it.
		return FailTransport, fmt.Errorf("pnpserve: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()

	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return FailOther, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return FailOther, fmt.Errorf("pnpserve: decode %s response: %w", path, err)
		}
		return FailOther, nil
	}
	apiErr := decodeAPIError(resp)
	return Classify(apiErr), apiErr
}

// decodeAPIError turns a non-2xx response into an *APIError, decoding
// the v1 envelope when present and synthesizing a code from the status
// otherwise (a proxy, or a pre-v1 server).
func decodeAPIError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode, RequestID: resp.Header.Get(telemetry.TraceHeader)}
	if ra := resp.Header.Get(api.RetryAfterHeader); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var envelope api.ErrorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if jsonErr := json.Unmarshal(raw, &envelope); jsonErr == nil && envelope.Error.Code != "" {
		apiErr.Info = envelope.Error
		if envelope.RequestID != "" {
			apiErr.RequestID = envelope.RequestID
		}
	} else {
		apiErr.Info = api.ErrorInfo{Code: api.CodeInternal, Message: strings.TrimSpace(string(raw))}
		if resp.StatusCode == http.StatusServiceUnavailable {
			apiErr.Info.Code = api.CodeUnavailable
		}
	}
	return apiErr
}
