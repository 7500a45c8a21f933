package testutil_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/registry"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/testutil"
)

// TestServingContract runs one table of wire cases against both serving
// binaries' handlers — the gate and a replica — because both must frame
// and count a v1 response the same way: X-Request-ID echoed or minted,
// X-Deadline parsed and enforced before any routing, every error
// envelope carrying its request_id, backpressure answers carrying
// Retry-After, and each mux route's *_http_* series moving in /metrics.
func TestServingContract(t *testing.T) {
	// The replica's predict route admits one request at a time, and its
	// skylake trainer blocks until released: one cold skylake predict
	// parked in training holds the slot, so every other predict is shed
	// as overloaded. Haswell models train at once, for the body rows.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	c := testutil.StartCluster(t, 1,
		testutil.WithServerConfig(func(cfg *registry.ServerConfig) { cfg.MaxInflight = 1 }),
		testutil.WithTrainer(func(k registry.Key) (*core.Model, core.ModelMeta, error) {
			if k.Machine == "skylake" {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-release
			}
			return testutil.TinyTrainer(k)
		}))

	tiers := []struct{ name, url, family string }{
		{"gate", c.GateURL, "pnpgate"},
		{"replica", c.Replicas[0].URL, "pnp"},
	}
	cases := []struct {
		name         string
		method, path string
		requestID    string // sent as X-Request-ID when set
		deadline     string // sent as X-Deadline when set
		status       int
		code         string // envelope code when status is an error
		route        string // mux pattern whose *_http_* series must move
	}{
		{name: "echoes the request ID", method: http.MethodGet, path: api.PathHealthz,
			requestID: "contract-1", status: http.StatusOK, route: api.PathHealthz},
		{name: "mints a request ID", method: http.MethodGet, path: api.PathHealthz,
			status: http.StatusOK, route: api.PathHealthz},
		{name: "malformed deadline", method: http.MethodGet, path: api.PathHealthz,
			requestID: "contract-2", deadline: "abc", status: http.StatusBadRequest, code: api.CodeBadRequest},
		{name: "spent deadline", method: http.MethodGet, path: api.PathHealthz,
			requestID: "contract-3", deadline: "-1", status: http.StatusGatewayTimeout, code: api.CodeDeadlineExceeded},
		{name: "huge deadline is not spent", method: http.MethodGet, path: api.PathHealthz,
			deadline: "1e300", status: http.StatusOK, route: api.PathHealthz},
		{name: "route error", method: http.MethodGet, path: api.PathPredict,
			status: http.StatusMethodNotAllowed, code: api.CodeMethodNotAllowed, route: api.PathPredict},
	}

	for _, tier := range tiers {
		for _, tc := range cases {
			t.Run(tier.name+"/"+tc.name, func(t *testing.T) {
				before := testutil.Scrape(t, tier.url)
				req, _ := http.NewRequest(tc.method, tier.url+tc.path, nil)
				if tc.requestID != "" {
					req.Header.Set(telemetry.TraceHeader, tc.requestID)
				}
				if tc.deadline != "" {
					req.Header.Set(api.DeadlineHeader, tc.deadline)
				}
				resp := checkResponse(t, req, tc.status, tc.code)
				id := resp.Header.Get(telemetry.TraceHeader)
				if id == "" || (tc.requestID != "" && id != tc.requestID) {
					t.Fatalf("%s = %q, sent %q", telemetry.TraceHeader, id, tc.requestID)
				}
				if tc.route == "" {
					return
				}
				after := testutil.Scrape(t, tier.url)
				series := []string{tier.family + "_http_requests_total"}
				if tc.status >= 400 {
					series = append(series, tier.family+"_http_errors_total")
				}
				for _, name := range series {
					key := name + `{route="` + tc.route + `"}`
					if after[key] <= before[key] {
						t.Fatalf("%s did not go up (%v → %v)", key, before[key], after[key])
					}
				}
			})
		}
	}

	for _, tier := range tiers {
		for _, tc := range predictBodyCases() {
			t.Run(tier.name+"/body/"+tc.name, func(t *testing.T) {
				checkPredict(t, tier.url, tc)
			})
		}
	}

	// A body that ends before its Content-Length is the client's fault.
	for _, tier := range tiers {
		t.Run(tier.name+"/body/shorter than its Content-Length", func(t *testing.T) {
			conn, err := net.Dial("tcp", strings.TrimPrefix(tier.url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			body := predictBody(contractGraph("r", "load double", ""))
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: contract\r\nContent-Length: %d\r\n\r\n%s",
				api.PathPredict, len(body)+10, body)
			conn.(*net.TCPConn).CloseWrite()
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env api.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusBadRequest ||
				env.Error.Code != api.CodeBadRequest {
				t.Fatalf("status %d, code %q (%v); want 400 %s", resp.StatusCode, env.Error.Code, err, api.CodeBadRequest)
			}
		})
	}

	// A declared Content-Length over the body limit is refused before any
	// of the body is read: a raw request that sends none still gets its
	// 413. The SDK, which sends the whole body, sees the same envelope
	// rather than a broken connection; so does the plain http.Client of
	// the "trailing bytes past the body limit" row.
	over := predictBody(contractGraph("r", "load double", "")) + strings.Repeat(" ", api.MaxRequestBytes)
	for _, tier := range tiers {
		t.Run(tier.name+"/body/declared over the body limit", func(t *testing.T) {
			conn, err := net.Dial("tcp", strings.TrimPrefix(tier.url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second)) // a server waiting for the body fails, not hangs
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: contract\r\nContent-Length: %d\r\n\r\n",
				api.PathPredict, api.MaxRequestBytes+1)
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env api.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge ||
				env.Error.Code != api.CodeGraphTooLarge {
				t.Fatalf("status %d, code %q (%v); want 413 %s", resp.StatusCode, env.Error.Code, err, api.CodeGraphTooLarge)
			}
		})
		t.Run(tier.name+"/body/over the body limit through the SDK", func(t *testing.T) {
			cl := client.New(tier.url, client.WithRetries(0, time.Millisecond))
			if _, err := cl.PredictBody(context.Background(), []byte(over)); !client.IsCode(err, api.CodeGraphTooLarge) {
				t.Fatalf("SDK error %v, want code %s", err, api.CodeGraphTooLarge)
			}
		})
	}

	// Park one cold predict on the replica, then both tiers shed.
	body, _ := json.Marshal(api.PredictRequest{Machine: "skylake", Objective: "time", Graph: corpusGraph(t, 0)})
	held := make(chan struct{})
	go func() {
		defer close(held)
		if resp, err := http.Post(c.Replicas[0].URL+api.PathPredict, "application/json", bytes.NewReader(body)); err == nil {
			resp.Body.Close()
		}
	}()
	t.Cleanup(func() { close(release); <-held }) // runs before the cluster's teardown
	select {
	case <-entered:
	case <-held:
		t.Fatal("the parked predict returned before reaching training")
	}
	// A machine no heuristic knows keeps the gate's degraded path from
	// answering in place of the replica's shed.
	shed, _ := json.Marshal(api.PredictRequest{Machine: "ghost-machine", Objective: "time", Graph: api.RawObject(`{}`)})
	for _, tier := range tiers {
		t.Run(tier.name+"/backpressure", func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodPost, tier.url+api.PathPredict, bytes.NewReader(shed))
			resp := checkResponse(t, req, http.StatusServiceUnavailable, api.CodeOverloaded)
			if got, want := resp.Header.Get(api.RetryAfterHeader), strconv.Itoa(api.RetryAfterSecs(api.CodeOverloaded)); got != want {
				t.Fatalf("%s = %q, want %q", api.RetryAfterHeader, got, want)
			}
		})
	}
}

// predictCase is one predict body and the answer both tiers must give
// it: a status, and either an error code or picks equal to those the
// same endpoint gives for the body like (a plain request when empty).
// region, when set, is the region_id the 200 answer must echo.
type predictCase struct {
	name, body   string
	status       int
	code         string
	like, region string
	chunked      bool // sent without a Content-Length
}

// contractGraph is a two-node graph with text as its instruction's text
// and region as its region_id; node holds extra fields for that node.
func contractGraph(region, text, node string) string {
	return `{"region_id":"` + region + `","nodes":[{"kind":"instruction","text":"` + text + `"` + node +
		`},{"kind":"variable","text":"param double"}],"edges":[{"src":1,"dst":0,"rel":"data"}]}`
}

// predictBody wraps a graph value in a haswell time-objective request.
func predictBody(graph string) string {
	return `{"machine":"haswell","objective":"time","graph":` + graph + `}`
}

// predictBodyCases pin how a predict body decodes: the encoding/json
// rules both tiers have always applied (case-folded keys, merged
// duplicates, integer-only int fields, float64 range, U+FFFD for bad
// UTF-8, its nesting limit, the first value of the body only).
func predictBodyCases() []predictCase {
	plain := contractGraph("r", "load double", "")
	deep := func(n int) string {
		return `{"machine":"haswell","objective":"time","extra":` + strings.Repeat("[", n) +
			strings.Repeat("]", n) + `,"graph":` + plain + `}`
	}
	bad := func(name, body string) predictCase {
		return predictCase{name: name, body: body, status: http.StatusBadRequest, code: api.CodeBadRequest}
	}
	ok := func(name, body, like, region string) predictCase {
		return predictCase{name: name, body: body, status: http.StatusOK, like: like, region: region}
	}
	text := func(region, text string) string { return predictBody(contractGraph(region, text, "")) }
	return []predictCase{
		ok("plain", predictBody(plain), "", "r"),
		ok("case-folded keys", `{"Machine":"haswell","OBJECTIVE":"time","Graph":`+plain+`}`, "", "r"),
		ok("duplicate graph merges", `{"machine":"haswell","objective":"time","graph":`+plain+
			`,"graph":{"region_id":"dup"}}`, "", "dup"),
		bad("null graph", predictBody(`null`)),
		bad("number graph", predictBody(`42`)),
		bad("array graph", predictBody(`[]`)),
		bad("string graph", predictBody(`"x"`)),
		ok("integer token", predictBody(contractGraph("r", "load double", `,"token":7`)), "", "r"),
		bad("fractional token", predictBody(contractGraph("r", "load double", `,"token":1.0`))),
		bad("exponent token", predictBody(contractGraph("r", "load double", `,"token":1e2`))),
		bad("token past int64", predictBody(contractGraph("r", "load double", `,"token":9223372036854775808`))),
		bad("counter past float64", `{"machine":"haswell","objective":"time","counters":[1e400],"graph":`+plain+`}`),
		ok("two-byte UTF-8", text("é", "é"), text("r", "é"), "é"),
		ok("four-byte UTF-8", text(`😀`, "😀"), text("r", "😀"), "😀"),
		ok("lone surrogate", text(`\ud800`, `\ud800`), text("r", "�"), "�"),
		ok("invalid UTF-8", text("\xff", "\xff"), text("r", "�"), "�"),
		ok("nested to the depth limit", deep(9999), "", "r"),
		bad("nested past the depth limit", deep(10000)),
		ok("trailing bytes", predictBody(plain)+` }{"trailing`, "", "r"),
		// The deliberate changes. The node limit rejects while decoding,
		// before the kinds are checked, so a graph of too many kindless
		// nodes is 413 where it was 400. The replica reads the whole body,
		// as the gate did, so trailing bytes past the body limit are 413
		// at both tiers where the replica used to answer 200. The limit
		// also fires before a later duplicate key can replace the list
		// (that was 200) and before the replica checks the key (an unknown
		// machine with too many nodes was 400).
		{name: "too many nodes", status: http.StatusRequestEntityTooLarge, code: api.CodeGraphTooLarge,
			body: predictBody(`{"nodes":[{}` + strings.Repeat(`,{}`, api.MaxGraphNodes) + `]}`)},
		{name: "too many nodes, replaced by a later key", status: http.StatusRequestEntityTooLarge,
			code: api.CodeGraphTooLarge, body: predictBody(`{"region_id":"r","nodes":[{}` +
				strings.Repeat(`,{}`, api.MaxGraphNodes) + `],` + strings.TrimPrefix(plain, `{"region_id":"r",`))},
		{name: "unknown machine and too many nodes", status: http.StatusRequestEntityTooLarge,
			code: api.CodeGraphTooLarge, body: `{"machine":"ghost-machine","objective":"time","graph":{"nodes":[{}` +
				strings.Repeat(`,{}`, api.MaxGraphNodes) + `]}}`},
		{name: "trailing bytes past the body limit", status: http.StatusRequestEntityTooLarge,
			code: api.CodeGraphTooLarge, body: predictBody(plain) + strings.Repeat(" ", api.MaxRequestBytes)},
		// Both tiers size their read from a Content-Length within the
		// limit; without one they read as before.
		{name: "plain without Content-Length", body: predictBody(plain), status: http.StatusOK, region: "r", chunked: true},
		{name: "trailing bytes past the body limit without Content-Length", status: http.StatusRequestEntityTooLarge,
			code: api.CodeGraphTooLarge, body: predictBody(plain) + strings.Repeat(" ", api.MaxRequestBytes), chunked: true},
	}
}

// checkPredict posts tc's body to url and checks the answer.
func checkPredict(t *testing.T, url string, tc predictCase) {
	t.Helper()
	var body io.Reader = strings.NewReader(tc.body)
	if tc.chunked {
		body = io.MultiReader(body) // a reader of unknown length
	}
	req, _ := http.NewRequest(http.MethodPost, url+api.PathPredict, body)
	resp := checkResponse(t, req, tc.status, tc.code)
	if tc.code != "" {
		return
	}
	var got api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if tc.region != "" && got.RegionID != tc.region {
		t.Fatalf("region_id = %q, want %q", got.RegionID, tc.region)
	}
	like := tc.like
	if like == "" {
		like = predictBody(contractGraph("r", "load double", ""))
	}
	want, err := http.Post(url+api.PathPredict, "application/json", strings.NewReader(like))
	if err != nil {
		t.Fatal(err)
	}
	defer want.Body.Close()
	var ref api.PredictResponse
	if err := json.NewDecoder(want.Body).Decode(&ref); err != nil || len(ref.Picks) == 0 {
		t.Fatalf("reference body: status %d, %v", want.StatusCode, err)
	}
	if !reflect.DeepEqual(got.Picks, ref.Picks) {
		t.Fatalf("picks = %+v, want %+v", got.Picks, ref.Picks)
	}
}

// checkResponse sends req and checks its status and, for an error, the
// envelope's code and request_id (which must match the response's
// X-Request-ID).
func checkResponse(t *testing.T, req *http.Request, status int, code string) *http.Response {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want %d: %s", resp.StatusCode, status, body)
	}
	if code == "" {
		return resp
	}
	var body api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if body.Error.Code != code {
		t.Fatalf("code = %q, want %q (%s)", body.Error.Code, code, body.Error.Message)
	}
	if id := resp.Header.Get(telemetry.TraceHeader); body.RequestID == "" || body.RequestID != id {
		t.Fatalf("envelope request_id = %q, header %q", body.RequestID, id)
	}
	return resp
}
