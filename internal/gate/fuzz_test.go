package gate

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/programl"
)

// FuzzGatePredictBody drives arbitrary bodies through the gate's predict
// handler in front of a stub replica that decodes what it is forwarded
// as a real replica would. Every answer is a 200 with picks or a typed
// 4xx envelope whose status matches its code: never a 5xx, never a
// panic. Whatever reaches the replica is a prefix of the body and one
// valid JSON value.
func FuzzGatePredictBody(f *testing.F) {
	forwarded := make(chan []byte, 1)
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		select {
		case forwarded <- body:
		default:
		}
		if _, _, err := programl.DecodePredict(body); err != nil {
			info := api.DecodeError(err)
			stubError(w, info.Code, info.Message)
			return
		}
		stubPredict(w, 1)
	}))
	f.Cleanup(rep.Close)
	g, err := New(Config{Replicas: []string{rep.URL}, Health: TrackerConfig{ProbeInterval: time.Hour}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(g.Close)
	h := g.Handler()

	graph := `{"region_id":"r","nodes":[{"kind":"instruction","text":"load double"},` +
		`{"kind":"variable","text":"param double"}],"edges":[{"src":1,"dst":0,"rel":"data"}]}`
	for _, body := range []string{
		`{"machine":"haswell","objective":"time","graph":` + graph + `}`,
		`{"Machine":"skylake","objective":"edp","scenario":"static","counters":[1.5],"graph":` + graph + `} trailing`,
		`{"machine":"haswell","objective":"time","graph":{"nodes":[{"kind":"alien"}]}}`,
		`{"machine":"haswell","objective":"time","graph":{"nodes":[{"kind":"variable"}],"edges":[{"src":0,"dst":5,"rel":"data"}]}}`,
		`{"machine":"haswell","objective":"time","graph":42}`,
		`{"machine":"haswell","objective":"time","graph":null}`,
		`{"machine":"haswell","graph":{"region_id":"\ud800","x":[{"y":[true,false,null,-1.5e3]}]}}`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathPredict, bytes.NewReader(body)))
		select {
		case got := <-forwarded:
			if !bytes.HasPrefix(body, got) || !json.Valid(got) {
				t.Fatalf("replica got %q, not a JSON value the body starts with", got)
			}
		default:
		}
		if rec.Code == http.StatusOK {
			var resp api.PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Picks) == 0 {
				t.Fatalf("200 without picks: %s (%v)", rec.Body.Bytes(), err)
			}
			return
		}
		var env api.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
			t.Fatalf("status %d without an error envelope: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 500 || api.StatusFor(env.Error.Code) != rec.Code {
			t.Fatalf("status %d, code %q: %s", rec.Code, env.Error.Code, env.Error.Message)
		}
	})
}
