package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pnptuner/internal/api"
)

// TestFetchModelBlob runs the peer-fetch loop that pnpserve's -peers
// and testutil's in-process replicas share over live peers: a 404, a
// dead address and an empty body each fall through to the next peer,
// no peer having the model is nil, "", nil, and an expired ctx stops the
// loop before any peer is asked.
func TestFetchModelBlob(t *testing.T) {
	const id = "m-1"
	var hits atomic.Int64
	peer := func(h http.HandlerFunc) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			if r.URL.Path != api.PathModelBlob(id) {
				t.Errorf("peer asked for %s, want %s", r.URL.Path, api.PathModelBlob(id))
			}
			h(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	missing := peer(func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, r, &api.ErrorInfo{Code: api.CodeModelNotFound, Message: "no model"})
	})
	empty := peer(func(w http.ResponseWriter, r *http.Request) {})
	serving := peer(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("blob")) })
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	live := context.Background()
	expired, cancel := context.WithDeadline(live, time.Now().Add(-time.Second))
	defer cancel()

	cases := []struct {
		name     string
		ctx      context.Context
		peers    []string
		wantBlob string
		wantPeer string
		wantErr  error
		wantHits int64
	}{
		{"404 then serve", live, []string{missing, serving}, "blob", serving, nil, 2},
		{"dead peer skipped", live, []string{dead.URL, serving}, "blob", serving, nil, 1},
		{"empty blob skipped", live, []string{empty, serving}, "blob", serving, nil, 2},
		{"first server wins", live, []string{serving, missing}, "blob", serving, nil, 1},
		{"no peer has it", live, []string{missing, dead.URL}, "", "", nil, 1},
		{"no peers", live, nil, "", "", nil, 0},
		{"expired ctx", expired, []string{serving, missing}, "", "", context.DeadlineExceeded, 0},
	}
	p := NewPool(WithRetries(0, time.Millisecond))
	defer p.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hits.Store(0)
			blob, from, err := p.FetchModelBlob(tc.ctx, tc.peers, id)
			if string(blob) != tc.wantBlob || from != tc.wantPeer || !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %q from %q (err %v), want %q from %q (err %v)",
					blob, from, err, tc.wantBlob, tc.wantPeer, tc.wantErr)
			}
			if tc.wantBlob == "" && blob != nil {
				t.Fatalf("blob = %q, want nil", blob)
			}
			if n := hits.Load(); n != tc.wantHits {
				t.Fatalf("peers were asked %d times, want %d", n, tc.wantHits)
			}
		})
	}
}
