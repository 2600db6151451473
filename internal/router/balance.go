package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringNode is one virtual node on the consistent-hash ring.
type ringNode struct {
	hash    uint64
	replica *Replica
}

// hashRing routes each model key to a stable replica via a ring of
// virtual nodes, so a model's micro-batches and (eventually) any
// per-model caches concentrate on one backend, and adding or removing a
// replica only remaps that replica's share of keys.
//
// It is consistent hashing *with bounded loads*: when the ring-preferred
// replica already carries more than loadFactor× the mean in-flight load
// of the candidates, the walk continues to the next distinct replica on
// the ring — cache locality until a hot key would overload its home,
// then spill.
type hashRing []ringNode

const (
	// ringVNodes gives each replica enough ring presence that key shares
	// stay within a few percent of uniform.
	ringVNodes = 128
	// loadFactor is the spill threshold as a multiple of the mean
	// in-flight load of the candidates.
	loadFactor = 2.0
)

// newHashRing builds a ring over the replicas with ringVNodes virtual
// nodes each.
func newHashRing(replicas []*Replica) hashRing {
	ring := make(hashRing, 0, len(replicas)*ringVNodes)
	for _, r := range replicas {
		for i := 0; i < ringVNodes; i++ {
			ring = append(ring, ringNode{hash: hashKey(r.URL + "#" + strconv.Itoa(i)), replica: r})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	return ring
}

// hashKey is 64-bit FNV-1a finished with a splitmix64-style mixer. Raw
// FNV over near-identical strings ("url#1", "url#2", ...) leaves the
// high bits — which decide ring order — strongly correlated, skewing
// vnode placement badly; the finalizer restores avalanche without any
// dependency.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// pick walks the ring clockwise from the key's hash, skipping replicas
// that are not candidates, and returns the first candidate under the
// load bound. If every candidate is over the bound, the ring-preferred
// candidate wins. candidates must be non-empty.
func (ring hashRing) pick(key string, candidates []*Replica) *Replica {
	if len(candidates) == 1 {
		return candidates[0]
	}
	isCandidate := make(map[*Replica]bool, len(candidates))
	var total int64
	for _, r := range candidates {
		isCandidate[r] = true
		total += r.inflight.Load()
	}
	mean := float64(total+1) / float64(len(candidates))
	bound := max(int64(loadFactor*mean), 1)

	start := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= hashKey(key) })
	var preferred *Replica
	seen := make(map[*Replica]bool, len(candidates))
	for i := 0; i < len(ring) && len(seen) < len(candidates); i++ {
		r := ring[(start+i)%len(ring)].replica
		if !isCandidate[r] || seen[r] {
			continue
		}
		seen[r] = true
		if preferred == nil {
			preferred = r
		}
		if r.inflight.Load() <= bound {
			return r
		}
	}
	if preferred == nil {
		// A candidate that never made it onto the ring (shouldn't happen
		// with a ring built over all replicas) still gets traffic.
		return candidates[0]
	}
	return preferred
}
