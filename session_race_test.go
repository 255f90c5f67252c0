package wrht

import (
	"reflect"
	"sync"
	"testing"
)

// hammerOps builds the mixed workload the concurrency tests drive: point
// pricing on both substrates, fabric co-simulation with and without faults,
// a fleet co-simulation, and a sweep — every public pricing surface of a
// SweepSession, with enough key overlap that concurrent callers contend for
// the same cache entries.
func hammerOps(t *testing.T) []func(ss *SweepSession) (any, error) {
	t.Helper()
	cfg := DefaultConfig(16)
	fabJobs := []JobSpec{
		{Name: "a", Bytes: 1 << 16, Iterations: 2},
		{Name: "b", Bytes: 1 << 18, Iterations: 1, ArrivalSec: 1e-4},
		{Name: "c", Bytes: 1 << 16, Iterations: 3, ArrivalSec: 2e-4, MaxWavelengths: 4},
	}
	plan := FaultPlan{
		Seed: 7, HorizonSec: 0.5,
		JobFaultMTBFSec: 0.05,
		Scripted: []FaultEvent{
			{TimeSec: 1e-4, Kind: FaultWavelengthDown, Count: 4},
			{TimeSec: 3e-4, Kind: FaultWavelengthUp, Count: 4},
		},
	}
	fleetJobs := fleetTestTrace(t, 12)
	sweep := SweepSpec{
		Nodes:        []int{8, 16},
		MessageBytes: []int64{1 << 16},
		Algorithms:   []Algorithm{AlgWrht, AlgERing, AlgORing},
	}
	return []func(ss *SweepSession) (any, error){
		func(ss *SweepSession) (any, error) { return ss.CommunicationTime(cfg, AlgWrht, 1<<20) },
		func(ss *SweepSession) (any, error) { return ss.CommunicationTime(cfg, AlgERing, 1<<20) },
		func(ss *SweepSession) (any, error) {
			return ss.SimulateFabric(cfg, fabJobs, FabricPolicy{Kind: FabricFirstFit})
		},
		func(ss *SweepSession) (any, error) {
			return ss.SimulateFabric(cfg, fabJobs, FabricPolicy{Kind: FabricElastic}, plan)
		},
		func(ss *SweepSession) (any, error) {
			return ss.SimulateFleet(cfg, fleetTestFabrics(), fleetTestShapes(), fleetJobs, FleetOptions{})
		},
		func(ss *SweepSession) (any, error) {
			// Compare cells only: SweepResult also stamps the session's
			// cumulative cache counters, which legitimately depend on what
			// else the shared session has priced.
			res, err := ss.RunSweep(sweep)
			if err != nil {
				return nil, err
			}
			return res.Cells, nil
		},
	}
}

// TestSessionConcurrentHammer drives every pricing surface of one shared
// SweepSession from many goroutines at once (run under -race in CI) and
// checks the session contract: every concurrent result is bit-identical to
// a serial run of the same call, and once the shared session has seen the
// workload, a second concurrent pass is served entirely from cache — zero
// new plan builds, schedule lowerings, substrate simulations, or runtime
// curve builds.
func TestSessionConcurrentHammer(t *testing.T) {
	ops := hammerOps(t)

	// Serial baseline on its own session: sessions are documented
	// bit-identical to the package functions and to each other.
	baseline := make([]any, len(ops))
	serial := NewSweepSession()
	for i, op := range ops {
		res, err := op(serial)
		if err != nil {
			t.Fatalf("serial op %d: %v", i, err)
		}
		baseline[i] = res
	}

	shared := NewSweepSession()
	const goroutines = 8
	hammer := func() {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*len(ops))
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Stagger starting op per goroutine so different surfaces
				// race each other, not just themselves.
				for k := 0; k < len(ops); k++ {
					i := (g + k) % len(ops)
					res, err := ops[i](shared)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res, baseline[i]) {
						t.Errorf("op %d under concurrency diverged from serial result", i)
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	hammer()

	warm := shared.Stats()
	if warm.PlanBuilds == 0 || warm.SimulationRuns == 0 {
		t.Fatalf("hammer did no real work: %+v", warm)
	}
	hammer()
	again := shared.Stats()
	if again.PlanBuilds != warm.PlanBuilds ||
		again.ScheduleBuilds != warm.ScheduleBuilds ||
		again.SimulationRuns != warm.SimulationRuns ||
		again.FabricRuntimeBuilds != warm.FabricRuntimeBuilds {
		t.Fatalf("second pass rebuilt cached work: first %+v, second %+v", warm, again)
	}
	if again.SimulationHits <= warm.SimulationHits {
		t.Fatalf("second pass recorded no new cache hits: first %+v, second %+v", warm, again)
	}
}

// TestObserveRacesPricing pins the atomic flight-recorder swap: enabling
// observability mid-flight must not perturb concurrent pricing (calls that
// sampled the pre-swap nil simply finish unobserved) and everything priced
// after the swap records. Run under -race this also proves the swap itself
// is clean.
func TestObserveRacesPricing(t *testing.T) {
	ops := hammerOps(t)
	baseline := make([]any, len(ops))
	serial := NewSweepSession()
	for i, op := range ops {
		res, err := op(serial)
		if err != nil {
			t.Fatalf("serial op %d: %v", i, err)
		}
		baseline[i] = res
	}

	ss := NewSweepSession()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < len(ops); k++ {
				i := (g + k) % len(ops)
				res, err := ops[i](ss)
				if err != nil {
					t.Errorf("op %d: %v", i, err)
					return
				}
				if !reflect.DeepEqual(res, baseline[i]) {
					t.Errorf("op %d diverged once observed", i)
				}
			}
		}(g)
	}
	// Swap the recorder in while pricing is in flight, and hit Snapshot
	// concurrently too: both are documented safe to race with pricing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		ss.Observe()
		_ = ss.Snapshot()
	}()
	close(start)
	wg.Wait()

	// Everything priced after this point must record: the session is warm,
	// so force one cold simulation and check the recorder saw it.
	if ss.Snapshot().Spans == 0 {
		if _, err := ss.CommunicationTime(DefaultConfig(32), AlgWrht, 1<<20); err != nil {
			t.Fatal(err)
		}
		if got := ss.Snapshot().Spans; got == 0 {
			t.Fatal("recorder enabled but a post-swap cold simulation recorded nothing")
		}
	}
}
