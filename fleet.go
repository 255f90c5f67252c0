package wrht

import (
	"context"
	"fmt"
	"hash/fnv"

	"wrht/internal/fleet"
)

// FleetFabricSpec describes one fabric of a heterogeneous fleet: a ring of
// Nodes workers sharing Wavelengths optical wavelengths, with its own
// elastic reconfiguration delay and inter-fabric migration cost. All other
// substrate parameters (rates, overheads, BytesPerElem, ...) come from the
// Config passed to SimulateFleet.
type FleetFabricSpec struct {
	// Name labels the fabric in results (default "fabric<i>").
	Name string
	// Nodes is this fabric's ring size (>= 2).
	Nodes int
	// Wavelengths is this fabric's wavelength budget (>= 1).
	Wavelengths int
	// ReconfigDelaySec is this fabric's optical switch settling time under
	// the elastic policy.
	ReconfigDelaySec float64
	// MigrationCostSec is the delay a job pays before starting here when
	// it is placed away from its affinity fabric.
	MigrationCostSec float64
}

// FleetShape is one workload shape of a fleet trace: jobs sharing a shape
// run the same model (or byte count) under the same algorithm, so they
// share runtime curves — the whole fleet prices each (fabric ring size,
// shape, width) triple through the single-ring simulation at most once.
type FleetShape struct {
	// Model names a catalog network; when set, its gradient size overrides
	// Bytes.
	Model string
	// Bytes is the all-reduced buffer size when Model is empty.
	Bytes int64
	// Algorithm prices the shape's all-reduce (default AlgWrht; electrical
	// algorithms are rejected).
	Algorithm Algorithm
}

// FleetJob is one trace entry: a tenant to be placed on some fabric of the
// fleet.
type FleetJob struct {
	// Name labels the job in per-job results (default "j<i>"; unused under
	// Lite).
	Name       string
	ArrivalSec float64
	Priority   int
	// MinWavelengths (default 1, raised to the shape algorithm's
	// structural floor) and MaxWavelengths (default: the target fabric's
	// whole budget) bound the stripe grant.
	MinWavelengths int
	MaxWavelengths int
	// Iterations is the number of back-to-back all-reduces (default 1).
	Iterations int
	// Shape indexes into SimulateFleet's shapes slice.
	Shape int
	// Affinity is the job's home fabric index (-1: no affinity; any first
	// placement is free, and off-affinity placements pay the target's
	// MigrationCostSec).
	Affinity int
	// CheckpointEverySec is the job's checkpoint interval in productive
	// service seconds (0: no checkpointing). Only meaningful under a
	// FaultPlan; checkpoints are fabric-local, so a job recovered onto a
	// different fabric restarts from scratch.
	CheckpointEverySec float64
}

// Fleet placement policies.
const (
	// FleetLeastLoaded places each job on the admissible fabric with the
	// lowest committed-load fraction.
	FleetLeastLoaded = "least-loaded"
	// FleetBestFit places each job on the fabric whose free wavelengths
	// most tightly fit its desired width.
	FleetBestFit = "best-fit"
	// FleetPriorityAware weighs migration cost against same-or-higher
	// priority contention, scaled by the job's solo runtime.
	FleetPriorityAware = "priority-aware"
)

// FleetOptions configures a fleet co-simulation.
type FleetOptions struct {
	// Placement is FleetLeastLoaded (default), FleetBestFit, or
	// FleetPriorityAware.
	Placement string
	// Policy is the per-fabric scheduling policy (default FabricElastic;
	// each fabric's ReconfigDelaySec comes from its spec, and FabricStatic
	// partition counts are not configurable at the fleet layer).
	Policy FabricPolicy
	// Lite drops per-job results and the per-fabric event traces, keeping
	// aggregates only — required for 10^5+ job traces.
	Lite bool
	// Faults injects seeded failures on the fleet's shared timeline; the
	// zero plan leaves every result bit-identical to a fault-free run.
	Faults FaultPlan
	// Recovery is RecoveryRetrySameFabric (default), RecoveryFailFast, or
	// RecoveryMigrateOnFailure; it governs jobs caught in fabric outages.
	Recovery string
	// MaxRetries/RetryBackoffSec/RetryBackoffMaxSec on the Faults plan
	// bound the recovery backoff at both the fabric and fleet layers.
}

// FleetFabricResult is one fabric's share of a fleet co-simulation.
type FleetFabricResult struct {
	Name   string
	Budget int
	// Placed counts jobs routed here; Migrated those that paid a migration
	// to land here.
	Placed       int
	Migrated     int
	Completed    int
	Rejected     int
	MakespanSec  float64
	MeanSlowdown float64
	Utilization  float64
	Reconfigs    int
	Preemptions  int
	// Fault shares (all zero without a FaultPlan).
	JobFaults   int
	Evictions   int
	Retries     int
	FailedJobs  int
	LostWorkSec float64
}

// FleetResult aggregates a trace-driven fleet co-simulation.
type FleetResult struct {
	Placement string
	Policy    FabricPolicy
	Fabrics   int
	Jobs      int
	Completed int
	// Rejected counts jobs that never completed; Unplaceable is its subset
	// rejected at the fleet front door (minimum grant above every budget).
	Rejected    int
	Unplaceable int
	// Migrations counts off-affinity placements; MigrationSec totals the
	// delay they paid.
	Migrations   int
	MigrationSec float64
	MakespanSec  float64
	MeanQueueSec float64
	MaxQueueSec  float64
	MeanSlowdown float64
	// Fairness is Jain's index over completed jobs' slowdowns, fleet-wide.
	Fairness float64
	// Utilization is lit wavelength-seconds over total budget x makespan.
	Utilization float64
	Reconfigs   int
	Preemptions int
	// EngineEvents counts executed events on the fleet's shared timeline.
	EngineEvents int64
	// Solver work counters, summed across fabrics: re-solve passes, tiers
	// the incremental solver filled vs. proved untouched, jobs re-priced,
	// and shape runtime-curve cache traffic.
	SolverSolves       int64
	SolverTiersTouched int64
	SolverTiersSkipped int64
	SolverJobsRepriced int64
	CurveHits          int64
	CurveBuilds        int64
	// Fault-recovery aggregates (all zero without a FaultPlan): Outages
	// counts whole-fabric failures; Killed jobs dropped by
	// RecoveryFailFast; FailedJobs exhausted retry budgets; JobFaults/
	// Evictions/Retries/LostWorkSec sum the per-fabric fault counters plus
	// work discarded by cross-fabric restarts.
	Outages     int
	Killed      int
	JobFaults   int
	Evictions   int
	Retries     int
	FailedJobs  int
	LostWorkSec float64
	// Availability is the capacity-weighted fraction of fleet
	// wavelength-second capacity not lost to dark wavelengths or outages
	// (1 without faults). P99Slowdown is the 99th-percentile completed-job
	// slowdown (nearest-rank; 0 under Lite).
	Availability float64
	P99Slowdown  float64
	PerFabric    []FleetFabricResult
}

// FleetTraceSpec parameterizes a seeded synthetic arrival trace for
// SimulateFleet. Generation is fully deterministic in the spec.
type FleetTraceSpec struct {
	// Kind is "poisson" (exponential gaps), "diurnal" (sinusoidally
	// rate-modulated), or "heavy-tail" (Pareto gaps with correlated
	// same-instant bursts).
	Kind string
	// Jobs is the trace length; Seed the generator seed; MeanGapSec the
	// mean inter-arrival gap.
	Jobs       int
	Seed       int64
	MeanGapSec float64
	// NumShapes and NumFabrics bound the per-job shape and affinity draws.
	NumShapes  int
	NumFabrics int
	// MaxWidth bounds MaxWavelengths draws (default 8); Priorities the
	// priority levels (default 3).
	MaxWidth   int
	Priorities int
	// PeriodSec/Amplitude shape the diurnal modulation (defaults 86400 and
	// 0.8); TailAlpha/BurstProb/BurstSize the heavy-tail process (defaults
	// 1.5, 0.05, 8).
	PeriodSec float64
	Amplitude float64
	TailAlpha float64
	BurstProb float64
	BurstSize int
}

func (s FleetTraceSpec) internal() (fleet.TraceSpec, error) {
	var kind fleet.TraceKind
	switch s.Kind {
	case "", "poisson":
		kind = fleet.Poisson
	case "diurnal":
		kind = fleet.Diurnal
	case "heavy-tail":
		kind = fleet.HeavyTail
	default:
		return fleet.TraceSpec{}, fmt.Errorf("wrht: unknown trace kind %q", s.Kind)
	}
	return fleet.TraceSpec{
		Kind: kind, Jobs: s.Jobs, Seed: s.Seed, MeanGapSec: s.MeanGapSec,
		NumShapes: s.NumShapes, NumFabrics: s.NumFabrics,
		MaxWidth: s.MaxWidth, Priorities: s.Priorities,
		PeriodSec: s.PeriodSec, Amplitude: s.Amplitude,
		TailAlpha: s.TailAlpha, BurstProb: s.BurstProb, BurstSize: s.BurstSize,
	}, nil
}

// GenerateFleetTrace generates a seeded synthetic arrival trace. The same
// spec yields the identical trace on every call.
func GenerateFleetTrace(spec FleetTraceSpec) ([]FleetJob, error) {
	inner, err := spec.internal()
	if err != nil {
		return nil, err
	}
	jobs, err := inner.Gen()
	if err != nil {
		return nil, err
	}
	out := make([]FleetJob, len(jobs))
	for i, j := range jobs {
		out[i] = FleetJob{
			ArrivalSec:     j.ArrivalSec,
			Priority:       j.Priority,
			MinWavelengths: j.MinWavelengths,
			MaxWavelengths: j.MaxWavelengths,
			Iterations:     j.Iterations,
			Shape:          j.Shape,
			Affinity:       j.Affinity,
		}
	}
	return out, nil
}

// SimulateFleet places every job of the trace onto a datacenter of
// heterogeneous optical fabrics and co-simulates all fabrics on one shared
// event timeline. Each fabric runs the per-fabric scheduling policy with
// its own wavelength budget and reconfiguration delay; the placement
// policy routes arrivals, paying migration costs for off-affinity
// placements. Pricing goes through the same single-ring simulation path as
// SimulateFabric, with runtime curves shared across every job of a shape
// and across fabrics with equal ring sizes. Deterministic: the same
// inputs produce the identical FleetResult.
func SimulateFleet(cfg Config, fabrics []FleetFabricSpec, shapes []FleetShape, jobs []FleetJob, opt FleetOptions) (FleetResult, error) {
	return NewSweepSession().SimulateFleet(cfg, fabrics, shapes, jobs, opt)
}

// SimulateFleet is SimulateFleet sharing this session's caches: per-shape
// runtime curves persist across calls and across fabrics with equal ring
// sizes, so sweeping placements or traces over the same fleet prices warm.
func (ss *SweepSession) SimulateFleet(cfg Config, fabrics []FleetFabricSpec, shapes []FleetShape, jobs []FleetJob, opt FleetOptions) (FleetResult, error) {
	return ss.SimulateFleetContext(nil, cfg, fabrics, shapes, jobs, opt)
}

// SimulateFleetContext is SimulateFleet under a cancellation context,
// checked every ~1024 executed events of the fleet's shared timeline.
func (ss *SweepSession) SimulateFleetContext(ctx context.Context, cfg Config, fabrics []FleetFabricSpec, shapes []FleetShape, jobs []FleetJob, opt FleetOptions) (FleetResult, error) {
	if err := ctxErr(ctx); err != nil {
		return FleetResult{}, err
	}
	if err := cfg.Validate(); err != nil {
		return FleetResult{}, err
	}
	if len(fabrics) == 0 {
		return FleetResult{}, fmt.Errorf("wrht: empty fleet (no fabric specs)")
	}
	if len(shapes) == 0 {
		return FleetResult{}, fmt.Errorf("wrht: no workload shapes")
	}

	var placement fleet.PlacementKind
	switch opt.Placement {
	case "", FleetLeastLoaded:
		placement = fleet.LeastLoaded
	case FleetBestFit:
		placement = fleet.BestFit
	case FleetPriorityAware:
		placement = fleet.PriorityAware
	default:
		return FleetResult{}, fmt.Errorf("wrht: unknown fleet placement %q", opt.Placement)
	}
	policy := opt.Policy
	if policy.Kind == "" {
		policy.Kind = FabricElastic
	}
	pol, err := policy.internal()
	if err != nil {
		return FleetResult{}, err
	}

	specs := make([]fleet.FabricSpec, len(fabrics))
	for i, f := range fabrics {
		name := f.Name
		if name == "" {
			name = fmt.Sprintf("fabric%d", i)
		}
		specs[i] = fleet.FabricSpec{
			Name:             name,
			Nodes:            f.Nodes,
			Wavelengths:      f.Wavelengths,
			ReconfigDelaySec: f.ReconfigDelaySec,
			MigrationCostSec: f.MigrationCostSec,
		}
	}

	// Resolve each shape once: algorithm, byte count, structural width
	// floor, and one runtime closure per distinct fabric ring size (the
	// session cache keys on the full config, so fabrics with equal Nodes
	// share curves).
	type shapeInfo struct {
		alg   Algorithm
		bytes int64
		floor int
	}
	infos := make([]shapeInfo, len(shapes))
	for si, sh := range shapes {
		alg := sh.Algorithm
		if alg == "" {
			alg = AlgWrht
		}
		if isElectrical(alg) {
			return FleetResult{}, fmt.Errorf("wrht: shape %d: electrical algorithm %q cannot share an optical fabric", si, alg)
		}
		bytes, err := jobBytes(cfg, JobSpec{Name: fmt.Sprintf("shape%d", si), Model: sh.Model, Bytes: sh.Bytes})
		if err != nil {
			return FleetResult{}, fmt.Errorf("wrht: shape %d: %w", si, err)
		}
		infos[si] = shapeInfo{alg: alg, bytes: bytes, floor: algFloor(cfg, alg)}
	}
	curves := make([]map[int64]func(int) (float64, error), len(fabrics))
	for fi, f := range fabrics {
		curves[fi] = map[int64]func(int) (float64, error){}
		cfgF := cfg
		cfgF.Nodes = f.Nodes
		for si, info := range infos {
			curves[fi][int64(si)] = ss.runtime(cfgF, info.alg, info.bytes)
		}
	}
	rt := func(fab, shape, w int) (float64, error) {
		return curves[fab][int64(shape)](w)
	}

	inner := make([]fleet.Job, len(jobs))
	for i, j := range jobs {
		if j.Shape < 0 || j.Shape >= len(shapes) {
			return FleetResult{}, fmt.Errorf("wrht: fleet job %d (%q): shape %d with %d shapes",
				i, j.Name, j.Shape, len(shapes))
		}
		info := infos[j.Shape]
		minW := j.MinWavelengths
		if info.floor > minW {
			minW = info.floor
			if j.MaxWavelengths != 0 && j.MaxWavelengths < info.floor {
				return FleetResult{}, fmt.Errorf(
					"wrht: fleet job %d (%q): %s with group size m=%d needs at least %d wavelengths, MaxWavelengths is %d",
					i, j.Name, info.alg, cfg.WrhtGroupSize, info.floor, j.MaxWavelengths)
			}
		}
		inner[i] = fleet.Job{
			Name:               j.Name,
			ArrivalSec:         j.ArrivalSec,
			Priority:           j.Priority,
			MinWavelengths:     minW,
			MaxWavelengths:     j.MaxWavelengths,
			Iterations:         j.Iterations,
			Shape:              j.Shape,
			Affinity:           j.Affinity,
			CheckpointEverySec: j.CheckpointEverySec,
		}
	}

	var recovery fleet.RecoveryPolicy
	switch opt.Recovery {
	case "", RecoveryRetrySameFabric:
		recovery = fleet.RetrySameFabric
	case RecoveryFailFast:
		recovery = fleet.FailFast
	case RecoveryMigrateOnFailure:
		recovery = fleet.MigrateOnFailure
	default:
		return FleetResult{}, fmt.Errorf("wrht: unknown recovery policy %q", opt.Recovery)
	}
	fp, err := opt.Faults.internal()
	if err != nil {
		return FleetResult{}, err
	}

	rec := ss.rec.Load()
	proc := ""
	if rec.Enabled() {
		proc = fleetProcName(cfg, fabrics, jobs, opt)
		if !opt.Faults.Empty() {
			proc += fmt.Sprintf(" · faults %08x · %s", opt.Faults.hash(), opt.Recovery)
		}
	}
	res, err := fleet.Simulate(specs, inner, rt, fleet.Options{
		Placement: placement, Policy: pol.Kind, Lite: opt.Lite, Rec: rec, Proc: proc,
		Faults: fp, Recovery: recovery, Retry: fp.Retry, Cancel: ctxCancel(ctx),
	})
	if err != nil {
		return FleetResult{}, err
	}

	out := FleetResult{
		Placement:          res.Placement.String(),
		Policy:             policy,
		Fabrics:            res.Fabrics,
		Jobs:               res.Jobs,
		Completed:          res.Completed,
		Rejected:           res.Rejected,
		Unplaceable:        res.Unplaceable,
		Migrations:         res.Migrations,
		MigrationSec:       res.MigrationSec,
		MakespanSec:        res.MakespanSec,
		MeanQueueSec:       res.MeanQueueSec,
		MaxQueueSec:        res.MaxQueueSec,
		MeanSlowdown:       res.MeanSlowdown,
		Fairness:           res.Fairness,
		Utilization:        res.Utilization,
		Reconfigs:          res.Reconfigs,
		Preemptions:        res.Preemptions,
		EngineEvents:       res.EngineEvents,
		SolverSolves:       res.Solver.Solves,
		SolverTiersTouched: res.Solver.TiersTouched,
		SolverTiersSkipped: res.Solver.TiersSkipped,
		SolverJobsRepriced: res.Solver.JobsRepriced,
		CurveHits:          res.Solver.CurveHits,
		CurveBuilds:        res.Solver.CurveBuilds,
		Outages:            res.Outages,
		Killed:             res.Killed,
		JobFaults:          res.JobFaults,
		Evictions:          res.Evictions,
		Retries:            res.Retries,
		FailedJobs:         res.FailedJobs,
		LostWorkSec:        res.LostWorkSec,
		Availability:       res.Availability,
		P99Slowdown:        res.P99Slowdown,
	}
	for _, f := range res.PerFabric {
		out.PerFabric = append(out.PerFabric, FleetFabricResult{
			Name:         f.Name,
			Budget:       f.Budget,
			Placed:       f.Placed,
			Migrated:     f.Migrated,
			Completed:    f.Result.CompletedJobs,
			Rejected:     f.Result.RejectedJobs,
			MakespanSec:  f.Result.MakespanSec,
			MeanSlowdown: f.Result.MeanSlowdown,
			Utilization:  f.Result.Utilization,
			Reconfigs:    f.Result.Reconfigs,
			Preemptions:  f.Result.Preemptions,
			JobFaults:    f.Result.JobFaults,
			Evictions:    f.Result.Evictions,
			Retries:      f.Result.Retries,
			FailedJobs:   f.Result.FailedJobs,
			LostWorkSec:  f.Result.LostWorkSec,
		})
	}
	return out, nil
}

// fleetProcName names one fleet co-simulation's recorder process prefix;
// the hash over the trace keeps concurrent fleet runs on a shared session
// recording to disjoint track sets.
func fleetProcName(cfg Config, fabrics []FleetFabricSpec, jobs []FleetJob, opt FleetOptions) string {
	h := fnv.New32a()
	for _, f := range fabrics {
		fmt.Fprintf(h, "%s|%d|%d|%g|%g;", f.Name, f.Nodes, f.Wavelengths, f.ReconfigDelaySec, f.MigrationCostSec)
	}
	for _, j := range jobs {
		fmt.Fprintf(h, "%g|%d|%d|%d|%d;", j.ArrivalSec, j.Priority, j.Iterations, j.Shape, j.Affinity)
	}
	placement := opt.Placement
	if placement == "" {
		placement = FleetLeastLoaded
	}
	return fmt.Sprintf("fleet %s · %d fabrics · %d jobs · mix %08x",
		placement, len(fabrics), len(jobs), h.Sum32())
}
