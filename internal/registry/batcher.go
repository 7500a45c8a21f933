package registry

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pnptuner/internal/core"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/telemetry"
)

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("registry: batcher closed")

// ErrOverloaded is returned when the batcher's bounded predict queue is
// at depth: the request was shed before any work (no compilation result
// queued, no forward pass), so retrying after backoff is always safe.
// HTTP handlers map it to CodeOverloaded with a Retry-After hint.
var ErrOverloaded = errors.New("registry: predict queue full")

// ErrForward marks a server-side failure of the batched forward pass, as
// opposed to request-validation errors — HTTP handlers map it to 5xx.
var ErrForward = errors.New("registry: batched forward failed")

// Request is one prediction: a program graph (already token-annotated)
// plus the extra features the model expects (nil for static models).
// TopK is the number of best classes per head the caller wants back;
// PredictTopK sets it, and Predict asks for 1 (the argmax picks).
type Request struct {
	Graph  *programl.Graph
	Extras []float64
	TopK   int
}

// reply carries one request's result back to its caller.
type reply struct {
	topk [][]int
	err  error
}

// request is a queued Request with its reply channel. The graph is
// compiled on the caller's goroutine before queuing, so compilation (CSR
// plan construction, gather arrays) runs in parallel across concurrent
// requests while the single batcher goroutine only merges precompiled
// plans and runs the forward pass.
type request struct {
	req   Request
	cg    *rgcn.CompiledGraph
	reply chan reply
	ctx   context.Context // the caller's; done by window time = abandoned
	// Telemetry (set at admission when the batcher carries an obs): the
	// request's trace ID for batch spans, and its enqueue time for the
	// queue-wait histogram.
	tid string
	enq time.Time
}

// Batcher funnels concurrent predictions into micro-batches without
// waiting: whenever the model is free it runs everything already queued
// (up to maxBatch) as one block-diagonal forward pass, and requests that
// arrive meanwhile form the next window, so windows grow with load. The
// batcher forwards on its own float32 snapshot of the model, which it
// alone uses: a snapshot is not goroutine-safe (layers cache per-call
// state), so the single batcher goroutine is also the serialization
// point — batching is what turns that constraint into throughput
// instead of a bottleneck.
type Batcher struct {
	model           *core.CompiledModel
	vocab, extraDim int // the model's Inputs
	maxBatch        int

	// Meta is the served model's metadata (notably Meta.Version, which
	// responses echo). Set it before the batcher is published to other
	// goroutines; the batcher itself never touches it.
	Meta core.ModelMeta

	// obs is the server's shared batching instrumentation; nil (library
	// use, tests) disables it. Like Meta: set before publishing.
	obs *batcherObs

	reqs chan *request
	done chan struct{} // closed by Close after all senders finish
	exit chan struct{} // closed when the loop goroutine returns

	mu      sync.RWMutex
	closed  bool
	senders sync.WaitGroup
}

// NewBatcher starts a batcher over a float32 snapshot of m, taken once
// here with MustQuantize; m itself is never forwarded on, so it stays
// free for training. maxBatch bounds the window size (min 1). maxWait is
// ignored: a window never waits for company. The parameter stays only so
// existing callers keep compiling.
func NewBatcher(m *core.Model, maxBatch int, maxWait time.Duration) *Batcher {
	return newBatcher(m.MustQuantize(), maxBatch)
}

func newBatcher(m *core.CompiledModel, maxBatch int) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	// The queue bound is the admission-control limit: four windows deep
	// (floored so tiny batch sizes keep useful burst headroom), past
	// which submit sheds with ErrOverloaded instead of queueing latency.
	queueCap := 4 * maxBatch
	if queueCap < 64 {
		queueCap = 64
	}
	b := &Batcher{
		model:    m,
		maxBatch: maxBatch,
		reqs:     make(chan *request, queueCap),
		done:     make(chan struct{}),
		exit:     make(chan struct{}),
	}
	b.vocab, b.extraDim = m.Inputs()
	go b.loop()
	return b
}

// Predict queues a request and blocks for its result: the argmax class of
// every model head, index-aligned with the heads (per-cap picks for a
// scenario-1 model, a single joint pick for scenario 2).
func (b *Batcher) Predict(req Request) ([]int, error) {
	return b.PredictContext(context.Background(), req)
}

// PredictContext is Predict under a caller deadline: an expired ctx
// sheds the request before any work, a ctx that expires while the
// request is queued abandons it (the window drops it without a forward),
// and one that expires during the forward gets its error, not the picks.
func (b *Batcher) PredictContext(ctx context.Context, req Request) ([]int, error) {
	lists, err := b.PredictTopKContext(ctx, req, 1)
	if err != nil {
		return nil, err
	}
	picks := make([]int, len(lists))
	for h, l := range lists {
		picks[h] = l[0]
	}
	return picks, nil
}

// PredictTopK queues a request and blocks for each head's k best
// classes, best first — the model-as-proposer path hybrid tuning
// sessions build their shortlists from. It batches with concurrent
// Predict traffic; the window runs one shared forward either way.
func (b *Batcher) PredictTopK(req Request, k int) ([][]int, error) {
	return b.PredictTopKContext(context.Background(), req, k)
}

// PredictTopKContext is PredictTopK under a caller deadline, with the
// same shed-before-work semantics as PredictContext.
func (b *Batcher) PredictTopKContext(ctx context.Context, req Request, k int) ([][]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("registry: top-k request with k=%d", k)
	}
	req.TopK = k
	rep, err := b.submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return rep.topk, nil
}

func (b *Batcher) submit(ctx context.Context, req Request) (reply, error) {
	if err := b.validate(req); err != nil {
		return reply{}, err
	}
	// Shed-before-work ordering: an already-expired budget costs nothing,
	// not a graph compilation. The deadline is read against the clock as
	// well: on a starved CPU the context's timer fires late, and a spent
	// budget that ctx.Err has not caught up with would otherwise race the
	// forward pass to the final select below.
	if err := ctx.Err(); err != nil {
		return reply{}, err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return reply{}, context.DeadlineExceeded
	}
	// Fast-fail before paying for compilation; the authoritative closed
	// check below still guards admission.
	b.mu.RLock()
	closed := b.closed
	b.mu.RUnlock()
	if closed {
		return reply{}, ErrClosed
	}
	cg := rgcn.CompileGraph(req.Graph)
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return reply{}, ErrClosed
	}
	r := &request{req: req, cg: cg, reply: make(chan reply, 1), ctx: ctx}
	if b.obs != nil {
		r.tid = telemetry.TraceID(ctx)
		r.enq = time.Now()
	}
	b.senders.Add(1)
	b.mu.RUnlock()
	// Bounded admission: the queue never blocks a caller. A full queue
	// means the single consumer is maxBatch windows behind — shedding now
	// (cheap, typed, retryable) beats stacking latency onto every queued
	// request until something times out.
	select {
	case b.reqs <- r:
		if b.obs != nil {
			b.obs.depth.Add(1)
		}
	default:
		b.senders.Done()
		if b.obs != nil {
			b.obs.shed.Inc()
		}
		return reply{}, ErrOverloaded
	}
	b.senders.Done()
	select {
	case rep := <-r.reply:
		if err := ctx.Err(); err != nil {
			return reply{}, err // select picks at random when both cases are ready
		}
		return rep, rep.err
	case <-ctx.Done():
		// The reply channel is buffered, so the window's eventual answer
		// is simply dropped; no goroutine is stranded.
		return reply{}, ctx.Err()
	}
}

// validate rejects malformed requests before they can reach (and panic)
// the batch engine, which would take the whole window down with them.
func (b *Batcher) validate(req Request) error {
	if req.Graph == nil {
		return errors.New("registry: request has no graph")
	}
	if err := req.Graph.Validate(); err != nil {
		return err
	}
	// Tokens past the model's vocabulary would silently embed as the
	// unknown token — a client/model mismatch worth failing loudly.
	if b.vocab > 0 {
		for i, n := range req.Graph.Nodes {
			if n.Token >= b.vocab {
				return fmt.Errorf("registry: node %d token %d outside the model's %d-token vocabulary",
					i, n.Token, b.vocab)
			}
		}
	}
	if len(req.Extras) != b.extraDim {
		return fmt.Errorf("registry: request has %d extra features, model wants %d",
			len(req.Extras), b.extraDim)
	}
	return nil
}

// Close stops the batcher: in-flight requests finish, queued requests are
// answered ErrClosed, and subsequent Predicts fail fast. Safe to call
// more than once; blocks until the loop goroutine exits.
func (b *Batcher) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		b.senders.Wait() // every admitted Predict has finished its send
		close(b.done)
	}
	<-b.exit
}

// loop is the single consumer: block for one request, take what else is
// already queued (up to maxBatch), run the window, repeat.
func (b *Batcher) loop() {
	defer close(b.exit)
	for {
		var first *request
		select {
		case first = <-b.reqs:
		case <-b.done:
			b.drain()
			return
		}
		batch := []*request{first}
	collect:
		for len(batch) < b.maxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			default:
				break collect
			}
		}
		b.run(batch)
	}
}

// drain answers everything still queued after Close.
func (b *Batcher) drain() {
	for {
		select {
		case r := <-b.reqs:
			if b.obs != nil {
				b.obs.depth.Add(-1)
			}
			r.reply <- reply{err: ErrClosed}
		default:
			return
		}
	}
}

// run scores one window in a single batched forward pass — merging the
// requests' precompiled plans instead of rebuilding adjacencies — and
// fans the per-head results back out to the callers: each member's k
// best per head (the window computes the widest k any member asked for
// and slices; Predict asks for 1). Members whose ctx is done were
// abandoned (their callers return the ctx error) and cost no forward. A
// panic from the model (a malformed graph that slipped past validation)
// fails the window, not the process.
func (b *Batcher) run(batch []*request) {
	start := time.Now()
	if b.obs != nil {
		b.obs.depth.Add(-int64(len(batch)))
		for _, r := range batch {
			// Queue wait spans admission through window collection: the
			// latency batching itself adds to this request.
			wait := start.Sub(r.enq)
			b.obs.wait.ObserveDuration(wait)
			b.obs.rec.Add(r.tid, "batch.queue", r.enq, wait)
		}
	}
	live := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() == nil {
			live = append(live, r)
		}
	}
	if batch = live; len(batch) == 0 {
		return
	}
	cgs := make([]*rgcn.CompiledGraph, len(batch))
	var extras [][]float64
	if b.extraDim > 0 {
		extras = make([][]float64, len(batch))
	}
	maxK := 1
	for i, r := range batch {
		cgs[i] = r.cg
		if extras != nil {
			extras[i] = r.req.Extras
		}
		if r.req.TopK > maxK {
			maxK = r.req.TopK
		}
	}
	if b.obs != nil {
		b.obs.window.Observe(uint64(len(batch)))
	}
	lists, err := b.forward(cgs, extras, maxK)
	if b.obs != nil {
		fdur := time.Since(start)
		b.obs.forward.ObserveDuration(fdur)
		size := strconv.Itoa(len(batch))
		for _, r := range batch {
			b.obs.rec.Add(r.tid, "batch.forward", start, fdur, "batch_size", size)
		}
	}
	for i, r := range batch {
		if err != nil {
			r.reply <- reply{err: err}
			continue
		}
		topk := make([][]int, len(lists[i]))
		for h, l := range lists[i] {
			topk[h] = l[:min(r.req.TopK, len(l))]
		}
		r.reply <- reply{topk: topk}
	}
}

func (b *Batcher) forward(cgs []*rgcn.CompiledGraph, extras [][]float64, k int) (lists [][][]int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrForward, p)
		}
	}()
	return b.model.TopKCompiled(cgs, extras, k), nil
}
