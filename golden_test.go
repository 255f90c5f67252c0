package wrht

import (
	"fmt"
	"reflect"
	"testing"

	"wrht/internal/core"
	"wrht/internal/runner"
	"wrht/internal/wdm"
)

// referenceCommunicationTime is the historical pricing path — boxed schedule
// through runner.RunOptical/RunElectrical — kept verbatim as the old-path
// oracle the compact fast path must match bit for bit. Its Wrht plan comes
// from a session like every production plan, and is pinned deep-equal to
// the uncached core.BuildPlan.
func referenceCommunicationTime(cfg Config, alg Algorithm, bytes int64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	elems := int((bytes + int64(cfg.BytesPerElem) - 1) / int64(cfg.BytesPerElem))
	l, err := NewSweepSession().lower(cfg, alg)
	if err != nil {
		return Result{}, err
	}
	if l.plan != nil {
		ref, err := core.BuildPlan(cfg.Nodes, cfg.Optical.Wavelengths, wrhtOptions(cfg, alg))
		if err != nil {
			return Result{}, err
		}
		if !reflect.DeepEqual(l.plan, ref) {
			return Result{}, fmt.Errorf("session plan %v differs from core.BuildPlan %v", l.plan, ref)
		}
	}
	s, err := l.boxed(elems)
	if err != nil {
		return Result{}, err
	}
	out := Result{Algorithm: alg, Steps: s.NumSteps()}
	if isElectrical(alg) {
		res, err := runner.RunElectrical(s, runner.ElectricalOptions{
			Params:       cfg.Electrical,
			BytesPerElem: cfg.BytesPerElem,
		})
		if err != nil {
			return Result{}, err
		}
		out.Substrate = res.Substrate
		out.Seconds = res.TotalSec
		return out, nil
	}
	opts := runner.DefaultOpticalOptions()
	opts.Params = cfg.Optical
	opts.BytesPerElem = cfg.BytesPerElem
	opts.Assigner = wdm.FirstFit
	if alg == AlgORingStriped {
		opts.DefaultWidth = cfg.Optical.Wavelengths
	}
	res, err := runner.RunOptical(s, opts)
	if err != nil {
		return Result{}, err
	}
	out.Substrate = res.Substrate
	out.Seconds = res.TotalSec
	out.MaxWavelengths = res.MaxWavelengths
	return out, nil
}

// goldenConfigs is a miniature of the Figure-2 grid plus the canonical
// report axes (group sizes, wavelength budgets) at test-friendly scales.
func goldenConfigs() []Config {
	var out []Config
	for _, n := range []int{16, 24, 32} {
		for _, w := range []int{8, 64} {
			cfg := DefaultConfig(n)
			cfg.Optical.Wavelengths = w
			out = append(out, cfg)
		}
	}
	gs := DefaultConfig(24)
	gs.WrhtGroupSize = 3
	out = append(out, gs)
	greedy := DefaultConfig(24)
	greedy.WrhtGreedyA2A = true
	out = append(out, greedy)
	return out
}

// TestCommunicationTimeGoldenEquality: every priced number out of the
// compact, pooled, memoized fast path is bit-identical to the historical
// boxed path, across the canonical grid axes and every algorithm.
func TestCommunicationTimeGoldenEquality(t *testing.T) {
	const bytes = 3 << 20
	for _, cfg := range goldenConfigs() {
		for _, alg := range Algorithms() {
			want, refErr := referenceCommunicationTime(cfg, alg, bytes)
			got, newErr := CommunicationTime(cfg, alg, bytes)
			if (refErr == nil) != (newErr == nil) {
				t.Fatalf("n=%d w=%d %s: error divergence: ref=%v new=%v",
					cfg.Nodes, cfg.Optical.Wavelengths, alg, refErr, newErr)
			}
			if refErr != nil {
				continue
			}
			// The reference does not recompute PredictedSeconds (it is not a
			// simulate-path output); compare the simulated fields bit-exactly.
			got.PredictedSeconds = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d w=%d %s: fast path diverges\n got %+v\nwant %+v",
					cfg.Nodes, cfg.Optical.Wavelengths, alg, got, want)
			}
		}
	}
}

// TestSessionReuseGoldenEquality: pricing through a shared SweepSession —
// caches warm, schedules and simulations served from memory — returns
// bit-identical results to fresh uncached calls, in any order.
func TestSessionReuseGoldenEquality(t *testing.T) {
	sess := NewSweepSession()
	cfg := DefaultConfig(24)
	const bytes = 1 << 20
	for round := 0; round < 3; round++ {
		for _, alg := range Algorithms() {
			fresh, err := CommunicationTime(cfg, alg, bytes)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := sess.CommunicationTime(cfg, alg, bytes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, cached) {
				t.Fatalf("round %d %s: session result diverges", round, alg)
			}
		}
	}
	st := sess.Stats()
	if st.SimulationRuns == 0 || st.SimulationHits == 0 {
		t.Fatalf("session caches idle: %+v", st)
	}
	// Rounds 2 and 3 must be pure cache hits: no new simulations.
	if st.SimulationRuns > int64(len(Algorithms())) {
		t.Fatalf("repeat rounds re-simulated: %+v", st)
	}
}

// TestSimulateFabricGoldenEquality: the session-backed fabric path equals
// the one-shot path, and repeated session use stays bit-stable.
func TestSimulateFabricGoldenEquality(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Optical.Wavelengths = 16
	jobs := []JobSpec{
		{Name: "a", Bytes: 1 << 20, Priority: 2, MaxWavelengths: 8},
		{Name: "b", Bytes: 2 << 20, ArrivalSec: 1e-4},
		{Name: "c", Bytes: 1 << 19, Algorithm: AlgORing},
	}
	sess := NewSweepSession()
	for _, pol := range FabricPolicies() {
		want, err := SimulateFabric(cfg, jobs, pol)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := sess.SimulateFabric(cfg, jobs, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("policy %s round %d: session fabric result diverges", pol, round)
			}
		}
	}
}

// TestSweepSessionRunSweepGoldenEquality: a sweep through a warm shared
// session equals a fresh RunSweep cell for cell.
func TestSweepSessionRunSweepGoldenEquality(t *testing.T) {
	spec := sweepTestSpec()
	fresh, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSweepSession()
	for round := 0; round < 2; round++ {
		got, err := sess.RunSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cells) != len(fresh.Cells) {
			t.Fatalf("cell count diverges: %d vs %d", len(got.Cells), len(fresh.Cells))
		}
		for i := range got.Cells {
			g, w := got.Cells[i], fresh.Cells[i]
			// Errors carry distinct instances; compare text.
			if (g.Err == nil) != (w.Err == nil) {
				t.Fatalf("cell %d error divergence", i)
			}
			if g.Err != nil {
				if g.Err.Error() != w.Err.Error() {
					t.Fatalf("cell %d error text diverges", i)
				}
				continue
			}
			g.Err, w.Err = nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("cell %d diverges between fresh and warm-session sweeps", i)
			}
		}
	}
}
