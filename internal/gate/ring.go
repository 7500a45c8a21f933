// Package gate is the multi-replica serving fabric's router: it
// consistent-hashes model keys (machine, scenario, objective) across N
// shared-nothing pnpserve replicas, probes their health, retries
// retryable failures on the next replica in the key's preference order,
// and single-flights cold-model warm-up so one replica trains a model
// while its peers fetch the serialized blob. cmd/pnpgate wraps it in a
// binary; internal/testutil spins whole in-process clusters of it for
// tests.
package gate

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over replica indices. Each replica
// owns VNodes points on a 64-bit circle; a key routes to the replica
// owning the first point at or after the key's hash, and its failover
// preference order is the sequence of distinct replicas walking
// clockwise from there. Adding or removing one replica therefore remaps
// only the key ranges adjacent to that replica's points — about 1/N of
// all keys — instead of reshuffling everything like modular hashing
// would.
//
// A Ring is immutable after New: health changes do not rebuild the ring
// (a down replica is skipped at lookup time), so routing for a fixed
// membership is deterministic forever.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int
}

// DefaultVNodes is the per-replica virtual-node count: enough that the
// per-replica load imbalance stays within a few percent, cheap enough
// that lookups stay a binary search over a few hundred points.
const DefaultVNodes = 128

// NewRing builds a ring over replicas 0..n-1 with vnodes points each
// (DefaultVNodes when vnodes <= 0). The point set depends only on
// (replica index, vnode index), so two gates configured with the same
// replica list route identically — membership order does not matter
// beyond naming the indices.
func NewRing(n, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{replicas: n, points: make([]ringPoint, 0, n*vnodes)}
	for rep := 0; rep < n; rep++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(rep, v), replica: rep})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by replica so the order is
		// still total and deterministic.
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// pointHash places one (replica, vnode) point on the circle.
func pointHash(replica, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "replica-%d#%d", replica, vnode)
	return h.Sum64()
}

// keyHash places a routing key on the circle.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Lookup returns the key's full preference order: every replica exactly
// once, starting at the key's owner and continuing clockwise. The
// caller walks this order for failover; filtering down replicas happens
// there, not here, so the order never changes under churn.
func (r *Ring) Lookup(key string) []int {
	order := make([]int, 0, r.replicas)
	if r.replicas == 0 || len(r.points) == 0 {
		return order
	}
	kh := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	seen := make([]bool, r.replicas)
	for i := 0; i < len(r.points) && len(order) < r.replicas; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			order = append(order, p.replica)
		}
	}
	return order
}

// Owner returns the key's first-choice replica (Lookup's head), or -1
// on an empty ring.
func (r *Ring) Owner(key string) int {
	order := r.Lookup(key)
	if len(order) == 0 {
		return -1
	}
	return order[0]
}
