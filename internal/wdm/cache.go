package wdm

import (
	"slices"
	"sync"
	"sync/atomic"
)

// RoundShape is one round of a step's round structure. Under AsGiven order
// the round splitter closes a round only when the next demand does not fit,
// so rounds are contiguous index ranges: a round covers the demands from the
// previous round's End up to (excluding) its own End, lit with Colors
// wavelengths. That is everything step pricing reads from a coloring.
type RoundShape struct {
	End, Colors int
}

// ColoringCache memoizes the round structure of steps by their complete
// demand set, so a step pattern that recurs — every chunk round of a
// pipelined schedule, every buffer size of a sweep (zero-byte holes aside,
// the active demands do not depend on the byte counts), every symmetric
// orbit of a ring schedule — is colored once. The key is exact: ring size,
// wavelength budget, policy, and every demand's arc and width in the order
// given. Lookups go by hash and are always confirmed by full equality, so a
// hit returns exactly what coloring the demands again would. Entries are
// never evicted; the cache lives as long as its owner (a sweep session, or
// one pricing run). It is safe for concurrent use.
type ColoringCache struct {
	mu      sync.RWMutex
	buckets map[uint64][]*coloring
	hits    atomic.Int64
	builds  atomic.Int64
}

// coloring is one cache entry: the key and the round structure it maps to.
// shape never changes once stored; rounds (the full assignment, stripes
// included) is set, under the write lock, only by Rounds.
type coloring struct {
	n, w    int
	policy  Policy
	demands []Demand
	shape   []RoundShape
	rounds  []Round
}

// NewColoringCache returns an empty cache.
func NewColoringCache() *ColoringCache {
	return &ColoringCache{buckets: map[uint64][]*coloring{}}
}

// Shape returns the round structure RoundsReused(demands, w, policy,
// AsGiven) produces on ws's ring, coloring the demands on ws only when the
// cache has not seen them. The returned slice is shared: read-only. A miss
// overwrites ws's RoundsReused arenas.
//
//wrht:noalloc
func (c *ColoringCache) Shape(ws *Workspace, demands []Demand, w int, policy Policy) ([]RoundShape, error) {
	n := ws.topo.N()
	h := demandHash(n, w, policy, demands)
	c.mu.RLock()
	e := c.find(h, n, w, policy, demands)
	c.mu.RUnlock()
	if e != nil {
		c.hits.Add(1)
		return e.shape, nil
	}
	rounds, err := ws.RoundsReused(demands, w, policy, AsGiven)
	if err != nil {
		return nil, err
	}
	shape, _ := c.store(h, n, w, policy, demands, rounds, false)
	return shape, nil
}

// Rounds is Shape for callers that need the stripes too (the event-level
// simulator): it returns what Rounds(ws's ring, demands, w, policy,
// AsGiven) would, memoized in full. The rounds are shared: read-only.
// Stripes cost memory per distinct demand set, so pricing paths that only
// time steps use Shape.
func (c *ColoringCache) Rounds(ws *Workspace, demands []Demand, w int, policy Policy) ([]Round, error) {
	if len(demands) == 0 {
		return ws.Rounds(demands, w, policy, AsGiven) // no rounds to share
	}
	n := ws.topo.N()
	h := demandHash(n, w, policy, demands)
	var rounds []Round
	c.mu.RLock()
	if e := c.find(h, n, w, policy, demands); e != nil {
		rounds = e.rounds
	}
	c.mu.RUnlock()
	if rounds != nil {
		c.hits.Add(1)
		return rounds, nil
	}
	rounds, err := ws.Rounds(demands, w, policy, AsGiven)
	if err != nil {
		return nil, err
	}
	_, rounds = c.store(h, n, w, policy, demands, rounds, true)
	return rounds, nil
}

// SingleRoundColors is the orbit query of symmetric pricing: the number of
// colors the demands use under First Fit (as-given order) within budget w,
// with ok=false when they need more than one round.
func (c *ColoringCache) SingleRoundColors(ws *Workspace, orbit []Demand, w int) (colors int, ok bool, err error) {
	shape, err := c.Shape(ws, orbit, w, FirstFit)
	if err != nil || len(shape) > 1 {
		return 0, false, err
	}
	if len(shape) == 1 {
		colors = shape[0].Colors
	}
	return colors, true, nil
}

// Stats returns lookups served from the cache and colorings stored (for
// Shape-only use, the distinct keys). Both are deterministic for a fixed
// multiset of lookups, whatever the concurrency: a coloring that loses an
// insertion race to an equal key counts as a hit.
func (c *ColoringCache) Stats() (hits, builds int64) {
	return c.hits.Load(), c.builds.Load()
}

// find returns the entry for the key, or nil; the caller holds c.mu.
//
//wrht:noalloc
func (c *ColoringCache) find(h uint64, n, w int, policy Policy, demands []Demand) *coloring {
	for _, e := range c.buckets[h] {
		if e.n == n && e.w == w && e.policy == policy && slices.Equal(e.demands, demands) {
			return e
		}
	}
	return nil
}

// store files a fresh coloring of demands under the key and returns the
// entry's shape and full rounds. The rounds are kept only when full is set
// (Shape's come from reused arenas). An equal entry stored meanwhile by
// another caller wins; the caller's coloring then counts as a hit.
func (c *ColoringCache) store(h uint64, n, w int, policy Policy, demands []Demand, rounds []Round, full bool) ([]RoundShape, []Round) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(h, n, w, policy, demands)
	if e != nil && (!full || e.rounds != nil) {
		c.hits.Add(1)
		return e.shape, e.rounds
	}
	if e == nil {
		shape := make([]RoundShape, len(rounds))
		end := 0
		for i, rd := range rounds {
			end += len(rd.Demands)
			shape[i] = RoundShape{End: end, Colors: rd.Assignment.NumColors}
		}
		e = &coloring{n: n, w: w, policy: policy, demands: slices.Clone(demands), shape: shape}
		c.buckets[h] = append(c.buckets[h], e)
	}
	if full {
		e.rounds = rounds
	}
	c.builds.Add(1)
	return e.shape, e.rounds
}

// demandHash is an FNV-1a style fingerprint of a cache key; entries verify
// full equality, so collisions only cost a comparison.
//
//wrht:noalloc
func demandHash(n, w int, policy Policy, demands []Demand) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(n)) * prime
	h = (h ^ uint64(w)) * prime
	h = (h ^ uint64(policy)) * prime
	for _, d := range demands {
		h = (h ^ (uint64(uint32(d.Arc.Src)) | uint64(d.Arc.Dst)<<32)) * prime
		h = (h ^ (uint64(uint8(d.Arc.Dir)) | uint64(d.Width)<<8)) * prime
	}
	return h
}
