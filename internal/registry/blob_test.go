package registry

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
)

// TestExportImportRoundTrip: a trained model's blob exports from one
// registry and imports into another bit-identically, from both the
// disk-backed and memory-only paths.
func TestExportImportRoundTrip(t *testing.T) {
	for _, disk := range []bool{true, false} {
		name := "memory"
		dir := ""
		if disk {
			name, dir = "disk", t.TempDir()
		}
		t.Run(name, func(t *testing.T) {
			src, err := New(dir, 2, func(k Key) (*core.Model, core.ModelMeta, error) {
				m, meta := tinyModel(k)
				return m, meta, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
			if _, err := src.Get(key); err != nil {
				t.Fatal(err)
			}
			blob, err := src.ExportBlob(key.ID())
			if err != nil {
				t.Fatal(err)
			}
			blob2, err := src.ExportBlob(key.ID())
			if err != nil {
				t.Fatal(err)
			}
			if disk && !bytes.Equal(blob, blob2) {
				t.Fatal("disk-backed export is not stable")
			}

			dst, err := New(t.TempDir(), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			e, err := dst.ImportBlob(blob, key.ID())
			if err != nil {
				t.Fatal(err)
			}
			if e.Key != key {
				t.Fatalf("imported key = %v, want %v", e.Key, key)
			}
			// The import must serve without a trainer, and re-export the
			// same bytes (content addressing holds across the fleet).
			if _, err := dst.Get(key); err != nil {
				t.Fatalf("imported model does not serve: %v", err)
			}
			back, err := dst.ExportBlob(key.ID())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, back) {
				t.Fatal("re-exported blob differs from imported bytes")
			}
			st := dst.Stats()
			if st.Imported != 1 || st.Trained != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestImportBlobRejects: corrupted bytes, a content-address mismatch,
// and garbage all refuse without installing anything.
func TestImportBlobRejects(t *testing.T) {
	src, err := New("", 2, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := tinyModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	if _, err := src.Get(key); err != nil {
		t.Fatal(err)
	}
	blob, err := src.ExportBlob(key.ID())
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	if _, err := dst.ImportBlob(bad, key.ID()); err == nil {
		t.Fatal("corrupted blob imported")
	}
	if _, err := dst.ImportBlob(blob, "deadbeef"); err == nil {
		t.Fatal("address-mismatched blob imported")
	}
	if _, err := dst.ImportBlob([]byte("junk"), ""); err == nil {
		t.Fatal("garbage imported")
	}
	if _, err := dst.Get(key); err == nil {
		t.Fatal("rejected imports still installed a model")
	}
	if st := dst.Stats(); st.Imported != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFetcherResolvesMiss: a registry miss consults the peer-fetch hook
// before training; a valid fetched blob serves (and counts as fetched),
// a failing fetcher falls through to the trainer.
func TestFetcherResolvesMiss(t *testing.T) {
	src, err := New("", 2, func(k Key) (*core.Model, core.ModelMeta, error) {
		m, meta := tinyModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	if _, err := src.Get(key); err != nil {
		t.Fatal(err)
	}
	blob, err := src.ExportBlob(key.ID())
	if err != nil {
		t.Fatal(err)
	}

	var trained, fetched atomic.Int32
	dst, err := New(t.TempDir(), 2, func(k Key) (*core.Model, core.ModelMeta, error) {
		trained.Add(1)
		m, meta := tinyModel(k)
		return m, meta, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dst.SetFetcher(func(_ context.Context, k Key) ([]byte, error) {
		fetched.Add(1)
		if k == key {
			return blob, nil
		}
		return nil, nil
	})

	if _, err := dst.Get(key); err != nil {
		t.Fatal(err)
	}
	if trained.Load() != 0 || fetched.Load() != 1 {
		t.Fatalf("trained=%d fetched=%d, want 0/1", trained.Load(), fetched.Load())
	}
	st := dst.Stats()
	if st.Fetched != 1 || st.Trained != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A fetched blob persists: re-export serves the identical bytes.
	back, err := dst.ExportBlob(key.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, back) {
		t.Fatal("fetched blob not persisted verbatim")
	}

	// A key no peer has falls through to training.
	other := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveEDP}
	if _, err := dst.Get(other); err != nil {
		t.Fatal(err)
	}
	if trained.Load() != 1 {
		t.Fatalf("miss with no peer blob trained %d times, want 1", trained.Load())
	}
}

// TestServerBlobEndpoints drives GET/PUT /v1/models/{id}/blob over HTTP:
// export from a warm server, import into a cold one, and the typed
// error paths (missing model, bad method, bad path, corrupt body).
func TestServerBlobEndpoints(t *testing.T) {
	_, warm := newTestServer(t)
	// Warm the model so the blob exists.
	resp, err := http.Post(warm.URL+"/v1/predict", "application/json",
		bytes.NewReader(predictBody(t, "haswell", ObjectiveTime, 0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}

	resp, err = http.Get(warm.URL + "/v1/models/" + key.ID() + "/blob")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("blob GET: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	blob := readAll(t, resp)

	// Import into a fresh trainerless server: predictions then serve
	// without training.
	reg, err := New("", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, kernels.MustCompile().Vocab, ServerConfig{MaxBatch: 4})
	cold := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { cold.Close(); srv.Close() })

	put, err := http.NewRequest(http.MethodPut, cold.URL+"/v1/models/"+key.ID()+"/blob", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blob PUT: %d: %s", resp.StatusCode, readAll(t, resp))
	}
	resp.Body.Close()
	resp, err = http.Post(cold.URL+"/v1/predict", "application/json",
		bytes.NewReader(predictBody(t, "haswell", ObjectiveTime, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after import: %d: %s", resp.StatusCode, readAll(t, resp))
	}
	resp.Body.Close()

	// Typed error paths.
	cases := []struct {
		name, method, path string
		body               []byte
		code               string
	}{
		{"missing model", http.MethodGet, "/v1/models/ffffffffffffffffffffffff/blob", nil, "model_not_found"},
		{"bad suffix", http.MethodGet, "/v1/models/" + key.ID() + "/weights", nil, "not_found"},
		{"bad method", http.MethodPost, "/v1/models/" + key.ID() + "/blob", []byte("x"), "method_not_allowed"},
		{"corrupt body", http.MethodPut, "/v1/models/" + key.ID() + "/blob", []byte("junk"), "bad_request"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, warm.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := decodeError(t, resp)
		resp.Body.Close()
		if body.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, body.Error.Code, tc.code)
		}
	}
}

// readAll drains a response body for assertions.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
