package wrht

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wrht/internal/runner"
	"wrht/internal/wdm"
)

// opticalAlgorithms lists every algorithm priced on the WDM ring.
func opticalAlgorithms() []Algorithm {
	var out []Algorithm
	for _, a := range Algorithms() {
		if !isElectrical(a) {
			out = append(out, a)
		}
	}
	return out
}

// sameBits reports whether two runner results agree bit for bit on every
// number pricing produces.
func sameBits(a, b runner.Result) bool {
	if math.Float64bits(a.TotalSec) != math.Float64bits(b.TotalSec) ||
		a.MaxWavelengths != b.MaxWavelengths || a.ExtraRounds != b.ExtraRounds ||
		len(a.StepSec) != len(b.StepSec) {
		return false
	}
	for i := range a.StepSec {
		if math.Float64bits(a.StepSec[i]) != math.Float64bits(b.StepSec[i]) {
			return false
		}
	}
	return true
}

// TestColoringCacheBitIdentical: pricing through one shared coloring cache
// — as a session does across buffer sizes, algorithms and policies — is bit
// for bit the cache-free pricing of the same schedules (every step
// materialized and colored afresh). Ring sizes are primes and other
// non-powers of two, budgets span [1, 64], and the smallest buffers have
// fewer elements than nodes, so zero-byte holes change the active demand
// sets between sizes of one trial.
func TestColoringCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nodes := []int{5, 6, 7, 10, 11, 12, 13, 17, 19, 23, 24, 29, 31, 37}
	priced := map[Algorithm]int{}
	for trial := 0; trial < 12; trial++ {
		cfg := DefaultConfig(nodes[rng.Intn(len(nodes))])
		cfg.Optical.Wavelengths = 1 + rng.Intn(64)
		n := cfg.Nodes
		colorings := wdm.NewColoringCache()
		ss := NewSweepSession() // supplies the schedules; its own caches price nothing here
		for _, elems := range []int{1 + rng.Intn(n-1), n + rng.Intn(3*n), 64*n + rng.Intn(1000)} {
			for _, alg := range opticalAlgorithms() {
				cls, _, _, err := ss.buildClassSchedule(cfg, alg, elems)
				if err != nil {
					continue // e.g. no Wrht plan fits a one-wavelength budget
				}
				boxed := cls.Expand()
				for _, policy := range []wdm.Policy{wdm.FirstFit, wdm.BestFit} {
					opts := opticalOptions(cfg, alg)
					opts.Assigner = policy
					want, errWant := runner.RunOptical(boxed, opts)
					got, errGot := runner.RunOpticalClassedObserved(cls, opts, nil, "", colorings)
					if (errWant == nil) != (errGot == nil) {
						t.Fatalf("trial %d %s N=%d W=%d elems=%d %v: error divergence: cache-free %v, cached %v",
							trial, alg, n, cfg.Optical.Wavelengths, elems, policy, errWant, errGot)
					}
					if errWant != nil {
						continue
					}
					if !sameBits(got, want) {
						t.Fatalf("trial %d %s N=%d W=%d elems=%d %v: cached pricing diverges\n got %+v\nwant %+v",
							trial, alg, n, cfg.Optical.Wavelengths, elems, policy, got, want)
					}
					priced[alg]++
				}
			}
		}
		if hits, _ := colorings.Stats(); hits == 0 {
			t.Fatalf("trial %d: the shared cache never hit", trial)
		}
	}
	for _, alg := range opticalAlgorithms() {
		if priced[alg] == 0 {
			t.Errorf("%s was never priced", alg)
		}
	}
}

// coloringSweep prices an all-optical grid — several buffer sizes, budgets
// and ring sizes, holes included — on a fresh observed session.
func coloringSweep(t *testing.T, parallelism int) ([]SweepCell, []byte, CacheStats) {
	t.Helper()
	ss := NewSweepSession()
	ob := ss.Observe()
	res, err := ss.RunSweep(SweepSpec{
		Base:         DefaultConfig(12),
		Nodes:        []int{12, 23},
		Wavelengths:  []int{4, 16},
		MessageBytes: []int64{40, 1 << 16, 1 << 20},
		Algorithms:   opticalAlgorithms(),
		Parallelism:  parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ob.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return res.Cells, buf.Bytes(), ss.Stats()
}

// TestColoringCacheAcrossParallelism: a session's workers share one
// coloring cache (run under -race in CI). Serial and 4-way sweeps of the
// same grid return identical cells, export identical trace bytes, and count
// identical coloring hits and builds.
func TestColoringCacheAcrossParallelism(t *testing.T) {
	cells1, trace1, st1 := coloringSweep(t, 1)
	cells4, trace4, st4 := coloringSweep(t, 4)
	if !reflect.DeepEqual(cells1, cells4) {
		t.Fatal("cells differ between Parallelism=1 and Parallelism=4")
	}
	if !bytes.Equal(trace1, trace4) {
		t.Fatal("trace bytes differ between Parallelism=1 and Parallelism=4")
	}
	if st1.ColoringHits != st4.ColoringHits || st1.ColoringBuilds != st4.ColoringBuilds {
		t.Fatalf("coloring counters depend on parallelism: serial %+v, 4-way %+v", st1, st4)
	}
	if st1.ColoringHits == 0 || st1.ColoringBuilds == 0 {
		t.Fatalf("grid did not exercise the coloring cache: %+v", st1)
	}
}

// TestCacheStatsColoring: the coloring cache is surfaced through
// CacheStats. A second identical sweep on one session colors nothing, and
// neither does a sweep of new buffer sizes large enough to leave no
// zero-byte transfers: their steps have the demand sets already colored,
// so every lookup hits.
func TestCacheStatsColoring(t *testing.T) {
	ss := NewSweepSession()
	spec := SweepSpec{
		Nodes:        []int{16, 24},
		MessageBytes: []int64{1 << 20},
		Algorithms:   []Algorithm{AlgWrht, AlgWrhtPipelined, AlgORing},
	}
	run := func() CacheStats {
		t.Helper()
		res, err := ss.RunSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return ss.Stats()
	}
	first := run()
	if first.ColoringBuilds == 0 || first.ColoringHits == 0 {
		t.Fatalf("first sweep: %d coloring hits, %d builds; want both > 0", first.ColoringHits, first.ColoringBuilds)
	}
	again := run()
	if again.ColoringBuilds != first.ColoringBuilds {
		t.Fatalf("identical sweep colored %d new demand sets", again.ColoringBuilds-first.ColoringBuilds)
	}
	spec.MessageBytes = []int64{3 << 20, 8 << 20}
	resized := run()
	if resized.ColoringBuilds != first.ColoringBuilds {
		t.Fatalf("new buffer sizes colored %d new demand sets", resized.ColoringBuilds-first.ColoringBuilds)
	}
	if resized.SimulationRuns == again.SimulationRuns || resized.ColoringHits <= again.ColoringHits {
		t.Fatalf("resized sweep did not price through the cache: before %+v, after %+v", again, resized)
	}
}
