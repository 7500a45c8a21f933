package client

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// Pool hands out one Client per base URL, all sharing a single
// keep-alive http.Transport sized for steady replica-to-replica
// traffic. The gate routes every request through a Pool so each replica
// gets a warm connection set instead of a new TCP handshake per proxy
// hop, and the fan-out endpoints (models, jobs) reuse the same
// connections. Safe for concurrent use.
type Pool struct {
	transport *http.Transport
	opts      []Option

	mu      sync.Mutex
	clients map[string]*Client
}

// NewPool builds a pool. opts apply to every Client it creates (the
// pool adds its shared transport itself; a WithHTTPClient option would
// defeat the pooling and should not be passed).
func NewPool(opts ...Option) *Pool {
	return &Pool{
		transport: &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		},
		opts:    opts,
		clients: map[string]*Client{},
	}
}

// Get returns the pooled Client for base, creating it on first use.
func (p *Pool) Get(base string) *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[base]; ok {
		return c
	}
	opts := append([]Option{WithHTTPClient(&http.Client{Transport: p.transport})}, p.opts...)
	c := New(base, opts...)
	p.clients[base] = c
	return c
}

// Close drops the pool's idle connections. Clients already handed out
// keep working (new connections are dialed on demand).
func (p *Pool) Close() {
	p.transport.CloseIdleConnections()
}

// FetchModelBlob asks each peer in order for the blob of the model
// with content address id and returns the first non-empty one with the
// peer that served it. A peer that lacks the model or is down is
// skipped; no peer having it is nil, "", nil. An expired ctx stops the
// loop with ctx's error. The caller bounds ctx and leaves itself out of
// peers.
func (p *Pool) FetchModelBlob(ctx context.Context, peers []string, id string) ([]byte, string, error) {
	for _, peer := range peers {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		rc, err := p.Get(peer).ModelBlob(ctx, id)
		if err != nil {
			continue
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err == nil && len(data) > 0 {
			return data, peer, nil
		}
	}
	return nil, "", nil
}
