// Package cluster is the scale-out layer over multiple copydetectd
// backends: a consistent-hash gateway that owns the dataset namespace
// and routes every request for a dataset to the one backend that holds
// it.
//
// The sharding unit is the dataset. Each dataset is already an
// independent convergence unit in internal/server — appends, detection
// rounds, snapshots and ETags of one dataset never touch another — so
// placing whole datasets on backends by a pure function of the name
// requires no cross-backend coordination: no distributed transactions,
// no replication protocol, no shared counters. A backend serves its
// datasets exactly as a single daemon would, and the gateway's only
// jobs are routing, health tracking and fan-out for the list endpoint.
//
// Routing is *stable*: a dataset's owner is decided by the ring alone,
// never by backend health. When a backend dies, requests for its
// datasets fail with 503 until it returns — they are not rerouted,
// because no other backend has the data. Health checking exists to
// fail those requests fast (ejection) and to notice recovery
// (readmission), not to move data.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is the number of virtual nodes each backend contributes
// to the ring. 128 points per backend keep the expected per-backend load
// within a few percent of even for small clusters while the ring stays
// tiny (a few KB). It is a constant because every gateway of a cluster
// must use the same value to route alike.
const virtualNodes = 128

// ringPoint is one virtual node: a position on the hash circle owned by
// a backend.
type ringPoint struct {
	hash    uint64
	backend int
}

// Ring is an immutable consistent-hash ring over an ordered list of
// backends. Owner is a pure function of the dataset name and the
// configured backend list, so every gateway (and every test) built
// from the same list routes identically.
type Ring struct {
	backends []string
	points   []ringPoint
}

// NewRing builds a ring over the given backend identifiers (base URLs,
// in practice). Backends must be non-empty and unique; order matters
// only for Owner's returned index.
func NewRing(backends []string) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	seen := make(map[string]bool, len(backends))
	r := &Ring{
		backends: append([]string(nil), backends...),
		points:   make([]ringPoint, 0, len(backends)*virtualNodes),
	}
	for i, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("cluster: backend %d is empty", i)
		}
		if seen[b] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b)
		}
		seen[b] = true
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", b, v)),
				backend: i,
			})
		}
	}
	// Ties (64-bit collisions between virtual nodes) are broken by
	// backend index so the ring order is fully determined by the input.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend
	})
	return r, nil
}

// NumBackends returns how many backends the ring was built over.
func (r *Ring) NumBackends() int { return len(r.backends) }

// Backend returns the identifier of backend i.
func (r *Ring) Backend(i int) string { return r.backends[i] }

// Owner returns the index of the backend that owns the dataset name:
// the backend of the first virtual node at or after the name's hash,
// wrapping around the circle.
func (r *Ring) Owner(name string) int {
	h := hash64(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].backend
}

// ReplicaSet returns the indexes of the first r distinct backends
// walking the ring clockwise from the dataset name's hash — the
// dataset's replica set. The first element is always Owner(name) (the
// primary); the rest are the failover replicas, in ring order. Like
// Owner, the result is a pure function of the name and the configured
// backend list, so every gateway derives the same membership with no
// coordination. r is clamped to [1, NumBackends].
func (r *Ring) ReplicaSet(name string, n int) []int {
	if n < 1 {
		n = 1
	}
	if n > len(r.backends) {
		n = len(r.backends)
	}
	h := hash64(name)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	members := make([]int, 0, n)
	seen := make([]bool, len(r.backends))
	for walked := 0; walked < len(r.points) && len(members) < n; walked++ {
		p := r.points[(start+walked)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			members = append(members, p.backend)
		}
	}
	return members
}

// hash64 is FNV-1a followed by a splitmix64 finalizer. FNV alone is
// stable but mixes the short, near-identical strings we hash (dataset
// names, "url#replica" virtual nodes) poorly enough to skew the ring;
// the avalanche pass spreads them uniformly. The function must stay
// stable across processes and Go versions, because tests and operators
// recompute placements from the backend list alone — which rules out
// maphash and friends.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
