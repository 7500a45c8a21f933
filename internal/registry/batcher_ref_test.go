package registry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pnptuner/internal/core"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/tensor"
)

// batcherRef is a small reference model of the Batcher's contract. It
// holds what an outside observer can know — each graph's answer from
// the unbatched model, whether Close has begun or returned, and the
// most callers ever inside a call at once — and judges every outcome
// against it.
type batcherRef struct {
	picks [][]int     // [graph][head] single-graph PredictCompiled
	topk  [][][][]int // [graph][k][head] single-graph TopKCompiled, k = 0..3

	queueCap   int64
	closeBegun atomic.Bool
	closeDone  atomic.Bool
	inflight   atomic.Int64
	peak       atomic.Int64 // most callers ever inside a call at once
	answered   atomic.Int64 // calls that came back with a result
}

func newBatcherRef(m *core.Model, graphs []*programl.Graph) *batcherRef {
	ref := &batcherRef{
		picks: make([][]int, len(graphs)),
		topk:  make([][][][]int, len(graphs)),
	}
	for i, g := range graphs {
		one := []*rgcn.CompiledGraph{rgcn.CompileGraph(g)}
		ref.picks[i] = m.PredictCompiled(one, nil)[0]
		ref.topk[i] = make([][][]int, 4)
		for k := 1; k <= 3; k++ {
			ref.topk[i][k] = m.TopKCompiled(one, nil, k)[0]
		}
	}
	return ref
}

// enter marks a caller inside a call and keeps the peak.
func (ref *batcherRef) enter() {
	n := ref.inflight.Add(1)
	for {
		p := ref.peak.Load()
		if n <= p || ref.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (ref *batcherRef) leave() { ref.inflight.Add(-1) }

// checkErr judges a failed call. Each caller holds at most one queued
// request, so a full queue means more than queueCap callers were inside
// a call at once, the shedding caller among them.
func (ref *batcherRef) checkErr(err error, afterClose bool) error {
	switch {
	case afterClose && !errors.Is(err, ErrClosed):
		return fmt.Errorf("call after Close returned = %v, want ErrClosed", err)
	case errors.Is(err, ErrClosed):
		if !ref.closeBegun.Load() {
			return errors.New("ErrClosed before Close began")
		}
	case errors.Is(err, ErrOverloaded):
		if p := ref.peak.Load(); p <= ref.queueCap {
			return fmt.Errorf("ErrOverloaded with at most %d callers and a %d-deep queue", p, ref.queueCap)
		}
	default:
		return fmt.Errorf("unexpected error %v", err)
	}
	return nil
}

func (ref *batcherRef) checkPicks(gi int, got []int, err error, afterClose bool) error {
	if err != nil {
		if got != nil {
			return fmt.Errorf("both picks %v and error %v", got, err)
		}
		return ref.checkErr(err, afterClose)
	}
	if afterClose {
		return fmt.Errorf("picks %v after Close returned", got)
	}
	ref.answered.Add(1)
	if !reflect.DeepEqual(got, ref.picks[gi]) {
		return fmt.Errorf("graph %d: batched picks %v != single-graph %v", gi, got, ref.picks[gi])
	}
	return nil
}

func (ref *batcherRef) checkTopK(gi, k int, got [][]int, err error, afterClose bool) error {
	if err != nil {
		if got != nil {
			return fmt.Errorf("both top-%d %v and error %v", k, got, err)
		}
		return ref.checkErr(err, afterClose)
	}
	if afterClose {
		return fmt.Errorf("top-%d %v after Close returned", k, got)
	}
	ref.answered.Add(1)
	if !reflect.DeepEqual(got, ref.topk[gi][k]) {
		return fmt.Errorf("graph %d: batched top-%d %v != single-graph %v", gi, k, got, ref.topk[gi][k])
	}
	return nil
}

// TestBatcherReferenceModel drives one batcher per seed from several
// goroutines, each a seeded random sequence of Predict, PredictTopK
// (k in 1..3) and PredictContext on an already-cancelled ctx, with one
// Close at a random point of one sequence. Every call must get exactly
// one outcome the reference model allows: the single-graph answer,
// ErrClosed only once Close has begun, ErrOverloaded only when the
// queue was full, or the ctx error. No window may exceed maxBatch, and
// once Close returns the loop goroutine is gone and every later call is
// ErrClosed.
func TestBatcherReferenceModel(t *testing.T) {
	key := Key{Machine: "haswell", Scenario: ScenarioFull, Objective: ObjectiveTime}
	m, _ := tinyModel(key)
	graphs := corpusGraphs(t, 8)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21, 34} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := tensor.NewRNG(seed)
			maxBatch := 1 + rng.Intn(4)
			workers := 2 + rng.Intn(7)
			ops := 8 + rng.Intn(24)
			closer, closeAt := rng.Intn(workers), rng.Intn(ops)

			ref := newBatcherRef(m, graphs)
			b := NewBatcher(m, maxBatch, 0)
			obs := testBatcherObs()
			b.obs = obs
			ref.queueCap = int64(cap(b.reqs))

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int, rng *tensor.RNG) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						if w == closer && i == closeAt {
							ref.closeBegun.Store(true)
							b.Close()
							select {
							case <-b.exit:
							default:
								t.Error("Close returned before the loop goroutine exited")
							}
							ref.closeDone.Store(true)
							continue
						}
						afterClose := ref.closeDone.Load()
						gi := rng.Intn(len(graphs))
						req := Request{Graph: graphs[gi]}
						var err error
						ref.enter()
						switch rng.Intn(3) {
						case 0:
							got, perr := b.Predict(req)
							err = ref.checkPicks(gi, got, perr, afterClose)
						case 1:
							k := 1 + rng.Intn(3)
							got, perr := b.PredictTopK(req, k)
							err = ref.checkTopK(gi, k, got, perr, afterClose)
						default:
							got, perr := b.PredictContext(cancelled, req)
							if got != nil || !errors.Is(perr, context.Canceled) {
								err = fmt.Errorf("cancelled-ctx predict = %v, %v; want context.Canceled", got, perr)
							}
						}
						ref.leave()
						if err != nil {
							t.Errorf("worker %d op %d: %v", w, i, err)
						}
					}
				}(w, tensor.NewRNG(seed*1000+uint64(w)))
			}
			wg.Wait()

			if _, err := b.Predict(Request{Graph: graphs[0]}); !errors.Is(err, ErrClosed) {
				t.Errorf("Predict after Close = %v, want ErrClosed", err)
			}
			// Window sizes below 32 are recorded exactly.
			if widest := obs.window.Quantile(1); widest > uint64(maxBatch) {
				t.Errorf("a window of %d requests, maxBatch %d", widest, maxBatch)
			}
			// Every answer came from exactly one forwarded slot, and
			// every taken request was answered.
			if fwd, n := obs.window.Sum(), ref.answered.Load(); fwd != uint64(n) {
				t.Errorf("%d requests forwarded, %d answered", fwd, n)
			}
			if taken, n := obs.wait.Count(), ref.answered.Load(); taken != uint64(n) {
				t.Errorf("%d requests taken into windows, %d answered", taken, n)
			}
			if d := obs.depth.Load(); d != 0 {
				t.Errorf("queue depth %d after Close, want 0", d)
			}
		})
	}
}
