package exp

import (
	"sync"

	"wrht/internal/core"
)

// Memo is a mutex+once memoization table: the map is mutex-guarded, each
// entry computes under its own sync.Once, so concurrent requests for the
// same key share a single computation (and distinct keys compute in
// parallel) while every caller receives the same value. Errors are memoized
// too. It is the shared machinery behind the three cache layers
// (plan → schedule → simulation) and the root package's fabric runtime
// curves. The zero value is an empty table.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	hits    int64
	misses  int64
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
	// requested marks that a counted request has seen this entry. The first
	// counted request per key is a miss even when an uncounted fill (the
	// optimizer's winner) arrived earlier — that keeps the counters
	// deterministic whatever the scheduling of concurrent workers.
	requested bool
}

// Do returns the memoized value for key, computing it with fn on first use.
// counted controls whether the request moves the hit/miss counters
// (internal requests — e.g. the plan optimizer filing its winner — fill the
// table without inflating the caller-visible stats).
func (m *Memo[K, V]) Do(key K, counted bool, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = map[K]*memoEntry[V]{}
	}
	e, ok := m.entries[key]
	if !ok {
		e = &memoEntry[V]{}
		m.entries[key] = e
	}
	if counted {
		if e.requested {
			m.hits++
		} else {
			e.requested = true
			m.misses++
		}
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = fn()
	})
	return e.val, e.err
}

// Stats returns the counted hits and misses so far; both are deterministic
// for a fixed request multiset, whatever the parallelism.
func (m *Memo[K, V]) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// PlanKey identifies one Wrht plan: core.BuildPlan is a pure function of
// these fields, so equal keys always yield identical plans.
type PlanKey struct {
	N, W int
	Opts core.Options
}

// PlanCache memoizes core.BuildPlan across concurrent sweep workers. Plans
// are immutable after construction, so sharing one pointer across goroutines
// is safe; build errors are memoized too (an infeasible key fails once, not
// once per point).
//
// Automatic-group-size keys (Opts.M == 0) run the optimizer (core.ChooseM)
// and file its winner under the winner's explicit-m key too, so a later
// request for the plan the optimizer chose is a cache hit, not a rebuild.
// The other candidates are not kept: every package-level call prices on a
// fresh session, so each of its optimizer runs is cold, and memoizing its
// few hundred candidates made such a run about a quarter slower and
// larger. The winner fill does not move the hit/miss counters; Stats
// reflects caller-visible requests only.
type PlanCache struct {
	m Memo[PlanKey, *core.Plan]
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{}
}

// Plan returns the memoized plan for (n, w, opts), building it on first use.
func (c *PlanCache) Plan(n, w int, opts core.Options) (*core.Plan, error) {
	key := PlanKey{N: n, W: w, Opts: opts}
	return c.m.Do(key, true, func() (*core.Plan, error) {
		if opts.M != 0 || n < 2 || w < 1 {
			return core.BuildPlan(n, w, opts)
		}
		best, err := core.ChooseM(n, w, opts)
		if err != nil {
			return nil, err
		}
		o := opts
		o.M, o.Policy = best.M, best.Policy
		return c.m.Do(PlanKey{N: n, W: w, Opts: o}, false, func() (*core.Plan, error) { return best, nil })
	})
}

// Stats returns the number of cache hits and misses so far: a miss is the
// first Plan request for a key, a hit any repeat (the optimizer's winner
// fill counts as neither, though it does save the miss's build work); both
// are deterministic for a fixed request multiset, whatever the parallelism.
func (c *PlanCache) Stats() (hits, misses int64) {
	return c.m.Stats()
}
