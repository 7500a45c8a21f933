package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/nn"
	"pnptuner/internal/programl"
	"pnptuner/internal/registry"
	"pnptuner/internal/rgcn"
)

// Span names of the ladder's rungs, outermost first. Each rung replays
// the same request through a deeper public entry point; the parent of a
// rung's span is the span of the rung that encloses it in production.
const (
	rungGate    = "client.predict@gate"      // L0: SDK → gate → owning replica
	rungReplica = "client.predict@replica"   // L1: SDK → owning replica
	rungHandler = "registry.server.handler"  // L2: the replica's handler, no socket
	rungBatcher = "registry.batcher.predict" // L3: validate + compile + window + forward
	rungModel   = "core.predict"             // L4: Model.PredictCompiled on a compiled graph
)

// served is one key's model restored three times from the stored blob:
// behind a batcher with the fleet's window, bare, and quantized. A
// Model is not goroutine-safe, so the batcher gets its own.
type served struct {
	batcher *registry.Batcher
	model   *core.Model
	quant   *core.CompiledModel
}

func restoreServed(f *fleet) (map[registry.Key]*served, error) {
	out := map[registry.Key]*served{}
	for _, k := range f.keys {
		behind, _, err := core.UnmarshalModel(f.blobs[k])
		if err != nil {
			return nil, err
		}
		bare, _, err := core.UnmarshalModel(f.blobs[k])
		if err != nil {
			return nil, err
		}
		q, err := bare.Quantize()
		if err != nil {
			return nil, err
		}
		out[k] = &served{batcher: registry.NewBatcher(behind, 16, 2*time.Millisecond), model: bare, quant: q}
	}
	return out, nil
}

// ladder replays the workload's first n predicts serially through
// successively deeper entry points — gate URL, owning replica URL, the
// replica's handler in-process, a batcher, the bare model — then times
// the leaf calls of the serving path on the same request bodies. Every
// call is one span; every rung's answer must match the expected picks.
// It fills the ladder and leaf metrics of out.
func ladder(w *prepared, f *fleet, rec *recorder, models map[registry.Key]*served, n int, out map[string]float64) error {
	ctx := context.Background()
	handlers := map[*replica]http.Handler{}
	for _, r := range f.replicas {
		handlers[r] = r.srv.Handler()
	}
	gate := w.env.gate
	var merger rgcn.Merger
	// The price of recording: every request also goes through L0 once
	// with no recorder, timed into a recorder of its own.
	bare := &recorder{epoch: rec.epoch, meter: rec.meter}

	trace := 0
	for _, o := range w.ops {
		if trace == n {
			break
		}
		if o.kind != opPredict {
			continue
		}
		trace++
		k, r := f.keys[o.key], w.env.regions[o.region]
		owner := f.owner(k)
		req := predictRequest(k, r.body)
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var want []int
		if w.env.expect != nil {
			want = w.env.expect[o.region][o.key]
		}
		check := func(rung string, picks []int) error {
			if want != nil && !equalInts(picks, want) {
				return fmt.Errorf("ladder %s: %s on %s: picks %v, core says %v", rung, r.id, k, picks, want)
			}
			return nil
		}
		viaClient := func(rec *recorder, name string, c *client.Client, parent int) (int, error) {
			id := rec.begin(name, trace, parent)
			resp, err := c.Predict(ctx, req)
			rec.end(id)
			if err != nil {
				return id, fmt.Errorf("ladder %s: %w", name, err)
			}
			return id, check(name, pickIndices(resp.Picks))
		}

		// L0 twice, recorded and not, in alternating order so neither
		// always runs on the caches the other warmed.
		var l0 int
		for pass := 0; pass < 2; pass++ {
			if (pass+trace)%2 == 0 {
				if l0, err = viaClient(rec, rungGate, gate, 0); err != nil {
					return err
				}
				continue
			}
			id := bare.begin(rungGate, trace, 0)
			_, err := viaClient(nil, rungGate, gate, 0)
			bare.end(id)
			if err != nil {
				return err
			}
		}
		l1, err := viaClient(rec, rungReplica, f.client(owner.url), l0)
		if err != nil {
			return err
		}

		l2 := rec.begin(rungHandler, trace, l1)
		hw := httptest.NewRecorder()
		handlers[owner].ServeHTTP(hw, httptest.NewRequest(http.MethodPost, api.PathPredict, bytes.NewReader(body)))
		rec.end(l2)
		var resp api.PredictResponse
		if err := json.Unmarshal(hw.Body.Bytes(), &resp); err != nil || hw.Code != http.StatusOK {
			return fmt.Errorf("ladder %s: status %d: %s", rungHandler, hw.Code, hw.Body.Bytes())
		}
		if err := check(rungHandler, pickIndices(resp.Picks)); err != nil {
			return err
		}

		// The handler's own work, as leaf calls: decode the request and
		// its graph, annotate tokens.
		id := rec.begin("api.decode", trace, l2)
		var dec api.PredictRequest
		g := &programl.Graph{}
		err = json.Unmarshal(body, &dec)
		if err == nil {
			err = json.Unmarshal(dec.Graph, g)
		}
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("vocab.annotate", trace, l2)
		f.corpus.Vocab.Annotate(g)
		rec.end(id)

		m := models[k]
		l3 := rec.begin(rungBatcher, trace, l2)
		picks, err := m.batcher.Predict(registry.Request{Graph: g})
		rec.end(l3)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", rungBatcher, err)
		}
		if err := check(rungBatcher, picks); err != nil {
			return err
		}
		id = rec.begin("programl.validate", trace, l3)
		err = g.Validate()
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("rgcn.compile", trace, l3)
		cg := rgcn.CompileGraph(g)
		rec.end(id)
		cgs := []*rgcn.CompiledGraph{cg}

		l4 := rec.begin(rungModel, trace, l3)
		picks = m.model.PredictCompiled(cgs, nil)[0]
		rec.end(l4)
		if err := check(rungModel, picks); err != nil {
			return err
		}
		id = rec.begin("rgcn.merge", trace, l4)
		batch := merger.Merge(cgs)
		rec.end(id)
		id = rec.begin("core.encode", trace, l4)
		pooled := m.model.Enc.ForwardBatch(batch)
		rec.end(id)
		id = rec.begin("core.heads", trace, l4)
		for h := range m.model.Heads {
			picks[h] = nn.Argmax(m.model.ScoreAll(pooled, [][]float64{nil}, h), 0)
		}
		rec.end(id)
		if err := check("core.heads", picks); err != nil {
			return err
		}
		// The quantized path is an alternative to L4, not a part of it:
		// a root span.
		id = rec.begin("core.predict_q", trace, 0)
		picks = m.quant.PredictCompiled(cgs, nil)[0]
		rec.end(id)
		if err := check("core.predict_q", picks); err != nil {
			return err
		}
	}

	med := func(name string) float64 { return ms(median(rec.durations(name))) }
	l := [5]float64{med(rungGate), med(rungReplica), med(rungHandler), med(rungBatcher), med(rungModel)}
	out["client.rtt_ms"] = l[0]
	out["gate.self_ms"] = l[0] - l[1]
	out["http.hop_ms"] = l[1] - l[2]
	out["registry.server.self_ms"] = l[2] - l[3]
	out["registry.batcher.wait_ms"] = l[3] - l[4]
	out["core.predict_ms"] = l[4]
	for _, leaf := range []string{"api.decode", "programl.validate", "vocab.annotate", "rgcn.compile",
		"rgcn.merge", "core.encode", "core.heads", "core.predict_q"} {
		out[leaf+"_ms"] = med(leaf)
	}
	if b := ms(median(bare.durations(rungGate))); b > 0 {
		out["trace.overhead_frac"] = (l[0] - b) / b
	}
	return nil
}

func pickIndices(picks []api.Pick) []int {
	out := make([]int, len(picks))
	for i, p := range picks {
		out[i] = p.ConfigIndex
	}
	return out
}
