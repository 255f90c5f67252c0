package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"wrht"
)

// fleet-trace: a heavy-tail arrival trace of fleetJobs jobs placed across 8
// heterogeneous fabrics (priority-aware placement, elastic per-fabric
// policy) under a seeded fault plan with checkpoints and migrate-on-failure,
// in Lite mode. Set-up generates the trace and prices the runtime curves on
// a session; the measured window replays the trace on that warm session, so
// the pricing layers only serve curve lookups.

const (
	fleetJobs    = 200_000
	fleetFabrics = 8
)

type fleetInput struct {
	cfg     wrht.Config
	fabrics []wrht.FleetFabricSpec
	shapes  []wrht.FleetShape
	jobs    []wrht.FleetJob
	opt     wrht.FleetOptions
}

func newFleetInput(seed uint64) (*fleetInput, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed0003))
	in := &fleetInput{cfg: wrht.DefaultConfig(32)}
	// Ring sizes and budgets are spread evenly over 16-64 nodes and 8-16
	// wavelengths, each fabric drawing its share from the seed, so every
	// seed's fleet has comparable capacity.
	nodes, budgets := rng.Perm(fleetFabrics), rng.Perm(fleetFabrics)
	for i := 0; i < fleetFabrics; i++ {
		in.fabrics = append(in.fabrics, wrht.FleetFabricSpec{
			Name:             fmt.Sprintf("pod%d", i),
			Nodes:            16 + (48*nodes[i]+rng.IntN(6))/(fleetFabrics-1),
			Wavelengths:      8 + (8*budgets[i]+rng.IntN(2))/(fleetFabrics-1),
			ReconfigDelaySec: (2 + 8*rng.Float64()) * 1e-6,
			MigrationCostSec: (5 + 15*rng.Float64()) * 1e-3,
		})
	}
	for _, m := range paperModels() {
		in.shapes = append(in.shapes, wrht.FleetShape{Model: m})
	}
	jobs, err := wrht.GenerateFleetTrace(wrht.FleetTraceSpec{
		Kind: "heavy-tail", Jobs: fleetJobs, Seed: int64(rng.Uint64() >> 1), MeanGapSec: 0.02,
		NumShapes: len(in.shapes), NumFabrics: fleetFabrics, MaxWidth: 8,
	})
	if err != nil {
		return nil, err
	}
	span := 0.0
	for i := range jobs {
		jobs[i].CheckpointEverySec = 50e-3
		span = max(span, jobs[i].ArrivalSec)
	}
	in.jobs = jobs
	in.opt = wrht.FleetOptions{
		Placement: wrht.FleetPriorityAware,
		Policy:    wrht.FabricPolicy{Kind: wrht.FabricElastic},
		Lite:      true,
		Faults: wrht.FaultPlan{
			Seed:              int64(rng.Uint64() >> 1),
			HorizonSec:        0.75 * span,
			WavelengthMTBFSec: span / 60,
			WavelengthMTTRSec: span / 600,
			JobFaultMTBFSec:   span / 30,
			FabricMTBFSec:     span / 6,
			FabricMTTRSec:     span / 300,
		},
		Recovery: wrht.RecoveryMigrateOnFailure,
	}
	return in, nil
}

// curveJobs is the trace prefix replayed during set-up to price the
// runtime curves.
const curveJobs = 20_000

// fleetSetup generates the inputs and prices the runtime curves on a fresh
// session.
func fleetSetup(seed uint64) (*fleetInput, *wrht.SweepSession, error) {
	in, err := newFleetInput(seed)
	if err != nil {
		return nil, nil, err
	}
	sess := wrht.NewSweepSession()
	opt := in.opt
	opt.Faults = wrht.FaultPlan{}
	if _, err := sess.SimulateFleet(in.cfg, in.fabrics, in.shapes, in.jobs[:curveJobs], opt); err != nil {
		return nil, nil, err
	}
	return in, sess, nil
}

func (in *fleetInput) replay(sess *wrht.SweepSession) (wrht.FleetResult, error) {
	return sess.SimulateFleet(in.cfg, in.fabrics, in.shapes, in.jobs, in.opt)
}

// fleetValid checks a result's internal consistency.
func fleetValid(r wrht.FleetResult) bool {
	in01 := func(x float64) bool { return x >= 0 && x <= 1 }
	return r.Completed+r.Rejected == r.Jobs && r.Jobs == fleetJobs && in01(r.Utilization) && in01(r.Availability)
}

func runFleetTrace(cfg runConfig) (*outcome, error) {
	o := &outcome{Named: map[string]float64{}}
	var in *fleetInput
	var sess *wrht.SweepSession
	for i := 0; i < setupRuns; i++ {
		in, sess = nil, nil // let the previous set-up's memory go first
		t0 := time.Now()
		var err error
		if in, sess, err = fleetSetup(cfg.Seed); err != nil {
			return nil, err
		}
		o.Setup = append(o.Setup, time.Since(t0).Seconds())
	}
	if cfg.Trace {
		return traceFleet(in, sess, o)
	}

	var first wrht.FleetResult
	var replayMs []float64
	for end := cfg.deadline(); len(replayMs) < 2 || time.Now().Before(end); {
		t0 := time.Now()
		res, err := in.replay(sess)
		if err != nil {
			return nil, err
		}
		replayMs = append(replayMs, time.Since(t0).Seconds()*1e3)
		o.Attempted++
		if len(replayMs) == 1 {
			first = res
		}
		if !fleetValid(res) || !reflect.DeepEqual(res, first) {
			o.Failed++
		}
	}
	o.P50 = median(replayMs)
	o.Items = fleetJobs / (o.P50 / 1e3)
	o.Named["jobs_per_s"] = o.Items
	o.Named["replays"] = float64(len(replayMs))

	// A cold, session-free run on the same trace must agree bit for bit.
	sess = nil // the warm session's memory is not needed any more
	fresh, err := wrht.SimulateFleet(in.cfg, in.fabrics, in.shapes, in.jobs, in.opt)
	if err != nil {
		return nil, err
	}
	o.Attempted++
	if !reflect.DeepEqual(fresh, first) {
		o.Failed++
		fmt.Printf("fleet-trace check: warm replay %+v\nfresh run %+v\n", first, fresh)
	}
	o.Digest = digestFleet(first)
	return o, nil
}

func digestFleet(r wrht.FleetResult) string {
	d := newDigest()
	d.str(fmt.Sprintf("%+v", r))
	return d.hex()
}

// traceFleet replays the trace untraced and then inside one span: fleet,
// fabric, sim and faults are reachable only through SimulateFleet with
// internal state the benchmark never sees, so their work is reported as
// the counters the fleet result carries.
func traceFleet(in *fleetInput, sess *wrht.SweepSession, o *outcome) (*outcome, error) {
	pass := func(tr *Tracer) (wrht.FleetResult, int, float64, error) {
		t0 := time.Now()
		root := tr.Begin(0, "", "fleet-trace.replay")
		id := tr.Begin(root, "fleet", "wrht.SweepSession.SimulateFleet")
		res, err := in.replay(sess)
		tr.End(id)
		tr.End(root)
		return res, root, time.Since(t0).Seconds(), err
	}
	first, _, untraced, err := pass(nil)
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	res, root, _, err := pass(tr)
	if err != nil {
		return nil, err
	}
	o.Attempted = 2
	for _, r := range []wrht.FleetResult{first, res} {
		if !fleetValid(r) || !reflect.DeepEqual(r, first) {
			o.Failed++
		}
	}
	ledger := tr.Ledger(root)
	L := map[string]float64{}
	addLedger(L, ledger, untraced)
	busy := ledger.Layers["fleet"].Busy
	L["fleet.migrations"] = float64(res.Migrations)
	L["sim.events"] = float64(res.EngineEvents)
	L["sim.ns_per_event"] = frac(busy*1e9, float64(res.EngineEvents))
	L["fabric.solves"] = float64(res.SolverSolves)
	L["fabric.tiers_skipped_frac"] = frac(float64(res.SolverTiersSkipped), float64(res.SolverTiersSkipped+res.SolverTiersTouched))
	L["fabric.jobs_repriced"] = float64(res.SolverJobsRepriced)
	L["fabric.curve_hits"] = float64(res.CurveHits)
	L["fabric.curve_builds"] = float64(res.CurveBuilds)
	L["faults.retries"] = float64(res.Retries)
	L["faults.evictions"] = float64(res.Evictions)
	L["faults.outages"] = float64(res.Outages)
	L["faults.job_faults"] = float64(res.JobFaults)
	L["fleet.makespan_s"] = res.MakespanSec
	L["fleet.mean_slowdown"] = res.MeanSlowdown
	L["fleet.utilization"] = res.Utilization
	L["fleet.availability"] = res.Availability
	o.Layers, o.Ledger, o.Tracer = L, &ledger, tr
	o.Digest = digestFleet(res)
	return o, nil
}
