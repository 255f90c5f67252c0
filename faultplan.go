package wrht

import (
	"fmt"
	"hash/fnv"

	"wrht/internal/faults"
)

// faultsPlan aliases the internal plan type for SimulateFabricContext.
type faultsPlan = faults.Plan

// Fault event kinds for FaultEvent.Kind, matching the strings that appear in
// exported fabric traces.
const (
	// FaultWavelengthDown darkens Count wavelengths of one fabric until a
	// matching FaultWavelengthUp.
	FaultWavelengthDown = "wavelength-down"
	// FaultWavelengthUp restores Count previously darkened wavelengths.
	FaultWavelengthUp = "wavelength-up"
	// FaultJob crashes one running job; it loses the work since its last
	// checkpoint and replays the tail.
	FaultJob = "job-fault"
	// FaultFabricDown takes a whole fabric offline (fleet simulations only);
	// every resident job is routed through the fleet's recovery policy.
	FaultFabricDown = "fabric-down"
	// FaultFabricUp repairs an offline fabric and releases jobs parked on it.
	FaultFabricUp = "fabric-up"
)

// FaultEvent is one scripted failure injection.
type FaultEvent struct {
	// TimeSec is the injection instant on the simulation timeline.
	TimeSec float64
	// Kind is one of the Fault* constants.
	Kind string
	// Fabric indexes the target fleet fabric (0, the only valid value, for
	// SimulateFabric).
	Fabric int
	// Count is how many wavelengths a wavelength-down/-up affects
	// (default: the plan's WavelengthsPerFault, itself defaulting to 1).
	Count int
	// Job optionally names a job-fault's victim; it must be running at the
	// injection instant or the event is a no-op. Empty picks the
	// longest-resident running job.
	Job string
}

// FaultPlan is a seeded, deterministic failure model: exponential MTBF/MTTR
// generators per fault class, plus explicitly scripted events. The zero
// value injects nothing and is guaranteed to leave every simulated number
// bit-identical to a run without a plan. Expansion into concrete events is
// deterministic in (Seed, HorizonSec, rates), so faulty simulations are as
// reproducible as fault-free ones.
type FaultPlan struct {
	// Seed drives every generator stream.
	Seed int64
	// HorizonSec bounds generated injection times; required (> 0) when any
	// MTBF generator is enabled.
	HorizonSec float64

	// WavelengthMTBFSec > 0 enables wavelength darkening: per fabric,
	// exponential times-between-failures of this mean, each darkening
	// WavelengthsPerFault wavelengths (default 1) for an exponential
	// duration of mean WavelengthMTTRSec (required > 0 when enabled).
	// Unsupported under FabricStatic (shares pin concrete wavelengths).
	WavelengthMTBFSec   float64
	WavelengthMTTRSec   float64
	WavelengthsPerFault int

	// JobFaultMTBFSec > 0 enables transient job crashes with exponential
	// inter-fault times of this mean per fabric.
	JobFaultMTBFSec float64

	// FabricMTBFSec > 0 enables whole-fabric outages (fleet simulations
	// only) with exponential times-between-failures of this mean and
	// exponential outage durations of mean FabricMTTRSec (required > 0 when
	// enabled).
	FabricMTBFSec float64
	FabricMTTRSec float64

	// Scripted events are injected as given, merged with the generated
	// streams.
	Scripted []FaultEvent

	// MaxRetries is the per-job retry budget (default 10); a job evicted
	// with no budget left fails permanently. RetryBackoffSec is the first
	// retry delay (default 1ms), doubling per attempt up to
	// RetryBackoffMaxSec (default 64ms).
	MaxRetries         int
	RetryBackoffSec    float64
	RetryBackoffMaxSec float64
}

// Empty reports whether the plan injects nothing.
func (p FaultPlan) Empty() bool {
	return p.WavelengthMTBFSec == 0 && p.JobFaultMTBFSec == 0 &&
		p.FabricMTBFSec == 0 && len(p.Scripted) == 0
}

// faultKind parses a Fault* constant.
func faultKind(s string) (faults.Kind, error) {
	switch s {
	case FaultWavelengthDown:
		return faults.WavelengthDown, nil
	case FaultWavelengthUp:
		return faults.WavelengthUp, nil
	case FaultJob:
		return faults.JobFault, nil
	case FaultFabricDown:
		return faults.FabricDown, nil
	case FaultFabricUp:
		return faults.FabricUp, nil
	default:
		return 0, fmt.Errorf("wrht: unknown fault event kind %q", s)
	}
}

// internal lowers the plan to the internal representation.
func (p FaultPlan) internal() (faults.Plan, error) {
	fp := faults.Plan{
		Seed:                p.Seed,
		HorizonSec:          p.HorizonSec,
		WavelengthMTBFSec:   p.WavelengthMTBFSec,
		WavelengthMTTRSec:   p.WavelengthMTTRSec,
		WavelengthsPerFault: p.WavelengthsPerFault,
		JobFaultMTBFSec:     p.JobFaultMTBFSec,
		FabricMTBFSec:       p.FabricMTBFSec,
		FabricMTTRSec:       p.FabricMTTRSec,
		Retry: faults.Retry{
			BackoffSec:    p.RetryBackoffSec,
			BackoffMaxSec: p.RetryBackoffMaxSec,
			MaxRetries:    p.MaxRetries,
		},
	}
	for i, ev := range p.Scripted {
		k, err := faultKind(ev.Kind)
		if err != nil {
			return faults.Plan{}, fmt.Errorf("wrht: scripted fault event %d: %w", i, err)
		}
		fp.Scripted = append(fp.Scripted, faults.Event{
			TimeSec: ev.TimeSec, Kind: k, Fabric: ev.Fabric, Count: ev.Count, Job: ev.Job,
		})
	}
	return fp, nil
}

// hash digests the plan for recorder process naming: faulted runs must
// record to track sets disjoint from the fault-free run of the same mix.
func (p FaultPlan) hash() uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%g|%g|%g|%d|%g|%g|%g|%d|%g|%g;",
		p.Seed, p.HorizonSec, p.WavelengthMTBFSec, p.WavelengthMTTRSec,
		p.WavelengthsPerFault, p.JobFaultMTBFSec, p.FabricMTBFSec, p.FabricMTTRSec,
		p.MaxRetries, p.RetryBackoffSec, p.RetryBackoffMaxSec)
	for _, ev := range p.Scripted {
		fmt.Fprintf(h, "%g|%s|%d|%d|%s;", ev.TimeSec, ev.Kind, ev.Fabric, ev.Count, ev.Job)
	}
	return h.Sum32()
}

// onePlan unwraps the optional trailing FaultPlan argument.
func onePlan(plan []FaultPlan) (FaultPlan, error) {
	switch len(plan) {
	case 0:
		return FaultPlan{}, nil
	case 1:
		return plan[0], nil
	default:
		return FaultPlan{}, fmt.Errorf("wrht: at most one FaultPlan may be passed (got %d)", len(plan))
	}
}

// Recovery policies for FleetOptions.Recovery.
const (
	// RecoveryRetrySameFabric (the default) holds outage-evicted jobs and
	// resubmits them to their own fabric once repaired, resuming from the
	// last checkpoint.
	RecoveryRetrySameFabric = "retry"
	// RecoveryFailFast drops every job caught in a fabric outage.
	RecoveryFailFast = "fail-fast"
	// RecoveryMigrateOnFailure re-places evicted jobs on the best surviving
	// fabric per the placement policy, restarting from scratch there
	// (checkpoints are fabric-local).
	RecoveryMigrateOnFailure = "migrate"
)
