package wrht

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/exp"
	"wrht/internal/obs"
	"wrht/internal/runner"
	"wrht/internal/wdm"
)

// session bundles the three memoization layers of the simulate fast path —
// plan → schedule → simulation (internal/exp) — plus the fabric runtime
// cache built on top of them and the WDM coloring cache below them, which
// every optical simulation of the session shares (a step pattern recurring
// across buffer sizes, models, or pipelined chunk rounds is colored once).
// All layers are safe for concurrent use; a nil
// *session disables caching (methods fall through to direct computation), so
// every pricing helper takes a session and works in both modes.
type session struct {
	plans  *exp.PlanCache
	scheds *exp.ScheduleCache
	sims   *exp.SimCache
	fabric *fabricCache
	// colorings is passed to the optical runner as its own argument, never
	// through exp.SimKey: sim keys name recorder processes, so they must
	// stay plain values.
	colorings *wdm.ColoringCache
	// rec is the session's flight recorder; a nil load (the default)
	// disables observability at zero cost beyond the atomic read. The
	// pointer is atomic so SweepSession.Observe is safe to race with
	// in-flight pricing: calls that loaded nil before the swap simply
	// finish unobserved, and everything after records.
	rec atomic.Pointer[obs.Recorder]
}

// recorder returns the session's flight recorder; nil sessions (and
// unobserved sessions) report nil, which every obs method treats as "off".
func (s *session) recorder() *obs.Recorder {
	if s == nil {
		return nil
	}
	return s.rec.Load()
}

// simProc names one substrate simulation's recorder process: the hash of the
// full memoization key (schedule identity + substrate options) guarantees
// distinct sims never share tracks, so concurrent cache fills stay
// byte-deterministic in trace exports.
func (s *session) simProc(key exp.SimKey) string {
	if s.recorder() == nil {
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

// newSession returns an empty session.
func newSession() *session {
	s := &session{
		plans:     exp.NewPlanCache(),
		scheds:    exp.NewScheduleCache(),
		sims:      exp.NewSimCache(),
		colorings: wdm.NewColoringCache(),
	}
	s.fabric = newFabricCacheWith(s)
	return s
}

// buildPlan is the session's planBuilder (nil session: plain core.BuildPlan).
func (s *session) buildPlan(n, w int, opts core.Options) (*core.Plan, error) {
	if s == nil {
		return core.BuildPlan(n, w, opts)
	}
	return s.plans.Plan(n, w, opts)
}

// schedule returns the (possibly cached) classed schedule for key. With a
// session the schedule is cache-owned and must never be Released; without
// one the caller owns it.
func (s *session) schedule(key exp.ScheduleKey, build func() (*collective.ClassSchedule, error)) (*collective.ClassSchedule, error) {
	if s == nil {
		return build()
	}
	return s.scheds.Schedule(key, build)
}

// simOptical prices the classed schedule on the WDM ring, memoized by
// (schedule identity, options) when a session is present.
func (s *session) simOptical(key exp.ScheduleKey, cls *collective.ClassSchedule, opts runner.OpticalOptions) (runner.Result, error) {
	if s == nil {
		return runner.RunOpticalClassed(cls, opts)
	}
	simKey := exp.SimKey{Sched: key, OptOpts: opts}
	return s.sims.Run(simKey, func() (runner.Result, error) {
		return runner.RunOpticalClassedObserved(cls, opts, s.recorder(), s.simProc(simKey), s.colorings)
	})
}

// simElectrical prices the classed schedule on the electrical substrate,
// memoized by (schedule identity, options) when a session is present.
// opts.Network must be nil on the cached path (it is derived from the
// schedule).
func (s *session) simElectrical(key exp.ScheduleKey, cls *collective.ClassSchedule, opts runner.ElectricalOptions) (runner.Result, error) {
	if s == nil || opts.Network != nil {
		return runner.RunElectricalClassed(cls, opts)
	}
	simKey := exp.SimKey{Sched: key, Electrical: true, ElecOpts: opts}
	return s.sims.Run(simKey, func() (runner.Result, error) {
		return runner.RunElectricalClassedObserved(cls, opts, s.recorder(), s.simProc(simKey))
	})
}

// SweepSession shares the plan, schedule, and simulation caches across any
// number of pricing calls: repeated sweeps, fabric co-simulations, and
// one-off CommunicationTime calls all reuse each other's work, so a
// configuration is planned, lowered, and simulated at most once per session
// lifetime. Construction is cheap; all methods are safe for concurrent use.
// Results are bit-identical to the session-free entry points.
//
// The caches have no eviction: a cached schedule at N=1024 is tens of MB,
// so memory grows with the number of distinct (algorithm, nodes, size)
// configurations the session has seen. Drop the session (and start a fresh
// one) to release everything; for one-shot grids, plain RunSweep already
// scopes the caches to the call.
type SweepSession struct {
	sess *session
}

// NewSweepSession returns an empty session.
func NewSweepSession() *SweepSession {
	return &SweepSession{sess: newSession()}
}

// RunSweep is RunSweep sharing this session's caches.
func (ss *SweepSession) RunSweep(spec SweepSpec) (*SweepResult, error) {
	return runSweep(nil, spec, ss.sess)
}

// CommunicationTime is CommunicationTime sharing this session's caches.
func (ss *SweepSession) CommunicationTime(cfg Config, alg Algorithm, bytes int64) (Result, error) {
	res, _, err := communicationTime(cfg, alg, bytes, ss.sess)
	return res, err
}

// SimulateFabric is SimulateFabric sharing this session's caches (including
// per-tenant runtime curves across calls and policies). Runtime curves are
// fault-independent, so faulty and fault-free runs of the same mix share
// them.
func (ss *SweepSession) SimulateFabric(cfg Config, jobs []JobSpec, policy FabricPolicy, plan ...FaultPlan) (FabricResult, error) {
	fp, err := onePlan(plan)
	if err != nil {
		return FabricResult{}, err
	}
	return simulateFabric(cfg, jobs, policy, ss.sess.fabric, fp, nil)
}

// SimulateFleet is SimulateFleet sharing this session's caches: per-shape
// runtime curves persist across calls and across fabrics with equal ring
// sizes, so sweeping placements or traces over the same fleet prices warm.
func (ss *SweepSession) SimulateFleet(cfg Config, fabrics []FleetFabricSpec, shapes []FleetShape, jobs []FleetJob, opt FleetOptions) (FleetResult, error) {
	return simulateFleet(cfg, fabrics, shapes, jobs, opt, ss.sess.fabric, nil)
}

// CompareFabricPolicies is CompareFabricPolicies sharing this session's
// caches: per-tenant runtime curves, plans, lowered schedules, and substrate
// simulations persist across calls, so repeated co-simulations of the same
// tenant mixes price warm instead of re-simulating cold.
func (ss *SweepSession) CompareFabricPolicies(cfg Config, jobs []JobSpec, policies []FabricPolicy) ([]FabricResult, error) {
	return compareFabricPolicies(cfg, jobs, policies, ss.sess.fabric)
}

// Compare is Compare sharing this session's caches (and, when observed, its
// flight recorder).
func (ss *SweepSession) Compare(cfg Config, algs []Algorithm, bytes int64) ([]Result, error) {
	out := make([]Result, 0, len(algs))
	for _, a := range algs {
		r, _, err := communicationTime(cfg, a, bytes, ss.sess)
		if err != nil {
			return nil, fmt.Errorf("wrht: %s: %w", a, err)
		}
		out = append(out, r)
	}
	return out, nil
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
	st.PlanHits, st.PlanBuilds = ss.sess.plans.Stats()
	st.ScheduleHits, st.ScheduleBuilds = ss.sess.scheds.Stats()
	st.SimulationHits, st.SimulationRuns = ss.sess.sims.Stats()
	st.FabricRuntimeHits, st.FabricRuntimeBuilds = ss.sess.fabric.Stats()
	st.ColoringHits, st.ColoringBuilds = ss.sess.colorings.Stats()
	return st
}
