package gate

import (
	"container/list"
	"errors"
	"hash/maphash"
	"strconv"
	"sync"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/hw"
	"pnptuner/internal/space"
)

// lkgCapacity bounds the last-known-good cache. Entries are small (a
// handful of picks), so the bound is about eviction behavior, not
// memory: distinct (key, graph) pairs in active rotation stay resident.
const lkgCapacity = 256

// lkgCache remembers the last successful predict response per
// (routing key, exact request bytes), LRU-evicted. It is the first rung of the
// gate's degraded path: when no replica can serve, a caller that asked
// this exact question before gets the previous answer back (marked
// degraded) instead of a 503.
type lkgCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recent; values are *lkgEntry
	byKey map[string]*list.Element // cacheKey → element
}

type lkgEntry struct {
	key  string
	resp api.PredictResponse
}

func newLKGCache(capacity int) *lkgCache {
	return &lkgCache{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

// lkgSeed seeds the request hash. The cache lives in memory only, so a
// per-process seed is enough.
var lkgSeed = maphash.MakeSeed()

// cacheKey folds the routing key and the exact request bytes into the
// cache key: a degraded answer is only valid for the request it was
// computed on, never for "a graph on the same machine".
func cacheKey(routeKey string, body []byte) string {
	return routeKey + "\x00" + strconv.FormatUint(maphash.Bytes(lkgSeed, body), 16)
}

// put records a successful response as the (key, request) pair's last
// known good.
func (c *lkgCache) put(routeKey string, body []byte, resp *api.PredictResponse) {
	if resp == nil {
		return
	}
	k := cacheKey(routeKey, body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*lkgEntry).resp = *resp
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(&lkgEntry{key: k, resp: *resp})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lkgEntry).key)
	}
}

// get returns a copy of the (key, request) pair's last known good
// response, if any.
func (c *lkgCache) get(routeKey string, body []byte) (api.PredictResponse, bool) {
	k := cacheKey(routeKey, body)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		return api.PredictResponse{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lkgEntry).resp, true
}

// degradedEligible reports whether a routing failure should fall back to
// degraded serving. Availability failures qualify — every replica down,
// draining, shedding, or unreachable says nothing about the request
// being wrong. Definitive failures do not: a 4xx would reject on a
// healthy cluster too, and a spent deadline budget must surface as
// deadline_exceeded, not as a late degraded answer the caller has
// already given up on.
func degradedEligible(err error) bool {
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch ae.Info.Code {
		case api.CodeUnavailable, api.CodeNoReplica, api.CodeReplicaUnavailable, api.CodeOverloaded:
			return true
		}
		return false
	}
	// Non-API: transport-level exhaustion.
	return err != nil
}

// degradedPredict answers a predict the cluster could not serve: the
// last known good response for this exact (key, request) if one is
// cached, else the model-free heuristic — the machine's default OpenMP
// configuration, the empirically safe pick the paper's baselines
// measure against. Returns false when the failure is not
// availability-shaped or the request is too malformed to answer at all.
func (g *Gate) degradedPredict(key string, req api.PredictRequest, regionID string, body []byte, routeErr error) (*api.PredictResponse, bool) {
	if !degradedEligible(routeErr) {
		return nil, false
	}
	if resp, ok := g.lkg.get(key, body); ok {
		resp.Degraded = true
		resp.DegradedSource = "cache"
		return &resp, true
	}
	return heuristicPredict(req, regionID)
}

// heuristicPredict builds the model-free fallback response. For the
// time objective that is the default configuration under every power
// cap; for EDP, the default configuration at the highest cap (the joint
// point that never throttles). Unknown machines or objectives return
// false — there is nothing sane to say. regionID is the graph's, as the
// gate's routing pass read it; it is advisory only.
func heuristicPredict(req api.PredictRequest, regionID string) (*api.PredictResponse, bool) {
	m, err := hw.ByName(req.Machine)
	if err != nil {
		return nil, false
	}
	sp := space.New(m)
	resp := &api.PredictResponse{
		RegionID:       regionID,
		Machine:        req.Machine,
		Objective:      req.Objective,
		Scenario:       req.Scenario,
		Degraded:       true,
		DegradedSource: "heuristic",
	}
	def := sp.DefaultIndex()
	switch req.Objective {
	case "time":
		for _, capW := range sp.Caps() {
			resp.Picks = append(resp.Picks, api.Pick{
				CapW:        capW,
				ConfigIndex: def,
				Config:      sp.Configs[def].String(),
			})
		}
	case "edp":
		joint := sp.JointIndex(len(sp.Caps())-1, def)
		capW, cfg := sp.At(joint)
		resp.Picks = []api.Pick{{CapW: capW, ConfigIndex: joint, Config: cfg.String()}}
	default:
		return nil, false
	}
	return resp, true
}
