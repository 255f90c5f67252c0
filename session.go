package wrht

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"wrht/internal/exp"
	"wrht/internal/obs"
	"wrht/internal/wdm"
)

// SweepSession is the pricing context every operation runs on: the plan →
// schedule → simulation caches (internal/exp), the fabric runtime curves
// above them, and the WDM coloring cache below them (a step pattern
// recurring across sizes, models, or chunk rounds is colored once). Calls
// on one session reuse each other's work, so a configuration is planned,
// lowered, and simulated at most once per session. Construction is cheap,
// all methods are safe for concurrent use, and results are bit-identical
// whatever the session priced before.
//
// Each operation has one body, in its ...Context method; the plain method
// forwards with a nil context, and the package function forwards to a
// fresh session per call. The context is checked at the call boundary and
// at the engines' iteration boundaries — between sweep grid points and
// every ~1024 events of fabric and fleet co-simulations — so a killed
// request stops within a bounded number of steps. A canceled call returns
// the context's error and never a partial result; a nil context disables
// every check.
//
// The caches have no eviction (a cached schedule at N=1024 is tens of MB),
// which is why there is no process-wide session: memory grows with the
// distinct configurations a session has seen, and dropping the session
// releases everything.
type SweepSession struct {
	plans  *exp.PlanCache
	scheds *exp.ScheduleCache
	sims   *exp.SimCache
	// fabric memoizes per-tenant runtime curves: (config, algorithm, bytes,
	// width) → seconds through the session's own pricing path.
	fabric exp.Memo[fabricCacheKey, float64]
	// colorings is passed to the optical runner as its own argument, never
	// through exp.SimKey: sim keys name recorder processes, so they must
	// stay plain values.
	colorings *wdm.ColoringCache
	// rec is the session's flight recorder; a nil load (the default)
	// disables observability at zero cost beyond the atomic read, since
	// every obs method treats a nil recorder as "off". The pointer is
	// atomic so Observe is safe to race with in-flight pricing: calls that
	// loaded nil before the swap simply finish unobserved, and everything
	// after records.
	rec atomic.Pointer[obs.Recorder]
}

// NewSweepSession returns an empty session.
func NewSweepSession() *SweepSession {
	return &SweepSession{
		plans:     exp.NewPlanCache(),
		scheds:    exp.NewScheduleCache(),
		sims:      exp.NewSimCache(),
		colorings: wdm.NewColoringCache(),
	}
}

// simProc names one substrate simulation's recorder process: the hash of the
// full memoization key (schedule identity + substrate options) guarantees
// distinct sims never share tracks, so concurrent cache fills stay
// byte-deterministic in trace exports.
func (ss *SweepSession) simProc(key exp.SimKey) string {
	if ss.rec.Load() == nil {
		return ""
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", key)
	substrate := "optical"
	if key.Electrical {
		substrate = "electrical"
	}
	alg := key.Sched.Algorithm
	if alg == "" {
		alg = "wrht" // Wrht plans carry identity in Sig, not the name
	}
	return fmt.Sprintf("price %s %s N=%d elems=%d · key %016x",
		substrate, alg, key.Sched.N, key.Sched.Elems, h.Sum64())
}

// CacheStats reports the session's cumulative cache effectiveness per layer.
type CacheStats struct {
	PlanHits, PlanBuilds           int64
	ScheduleHits, ScheduleBuilds   int64
	SimulationHits, SimulationRuns int64
	// FabricRuntimeHits/Builds count the fabric layer's per-tenant runtime
	// curve lookups — the memoized (config, algorithm, bytes, width) →
	// seconds entries that fabric co-simulations price tenants through.
	FabricRuntimeHits, FabricRuntimeBuilds int64
	// ColoringHits/Builds count the WDM coloring cache's lookups: steps
	// whose demand set was already colored, and demand sets colored.
	ColoringHits, ColoringBuilds int64
}

// Stats returns the session's cumulative cache counters.
func (ss *SweepSession) Stats() CacheStats {
	var st CacheStats
	st.PlanHits, st.PlanBuilds = ss.plans.Stats()
	st.ScheduleHits, st.ScheduleBuilds = ss.scheds.Stats()
	st.SimulationHits, st.SimulationRuns = ss.sims.Stats()
	st.FabricRuntimeHits, st.FabricRuntimeBuilds = ss.fabric.Stats()
	st.ColoringHits, st.ColoringBuilds = ss.colorings.Stats()
	return st
}

// ctxCancel lowers a context to the engines' cancellation-hook shape; a nil
// context (or context.Background()) costs nothing downstream.
func ctxCancel(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
