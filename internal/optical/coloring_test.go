package optical

import (
	"math"
	"math/rand"
	"testing"

	"wrht/internal/ring"
	"wrht/internal/wdm"
)

// randomStep draws count transfers on topo with widths in [0, maxWidth] and
// roughly a quarter of them empty, so the active set has holes.
func randomStep(rng *rand.Rand, topo ring.Topology, count, maxWidth int, bytes int64) []TransferSpec {
	out := make([]TransferSpec, count)
	for i := range out {
		src := rng.Intn(topo.N())
		dst := (src + 1 + rng.Intn(topo.N()-1)) % topo.N()
		dir := ring.CW
		if rng.Intn(2) == 1 {
			dir = ring.CCW
		}
		b := bytes + int64(rng.Intn(1<<12))
		if rng.Intn(4) == 0 {
			b = 0
		}
		out[i] = TransferSpec{Arc: ring.Arc{Src: src, Dst: dst, Dir: dir}, Bytes: b, Width: rng.Intn(maxWidth + 1)}
	}
	return out
}

// TestPriceWithColoringsBitIdentical: a pricer serving colorings from a
// shared cache reports exactly what a cache-free pricer does — duration to
// the bit, rounds, and peak wavelengths — on misses and on hits, including
// hits whose byte counts differ from the step that filled the entry.
func TestPriceWithColoringsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	c := wdm.NewColoringCache()
	for _, n := range []int{7, 12, 19} {
		topo := ring.MustNew(n)
		for trial := 0; trial < 20; trial++ {
			p := DefaultParams()
			p.Wavelengths = 1 + rng.Intn(8)
			policy := wdm.Policy(rng.Intn(2))
			plain, err := NewStepPricer(topo, p, policy)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := NewStepPricer(topo, p, policy)
			if err != nil {
				t.Fatal(err)
			}
			cached.UseColorings(c)
			step := randomStep(rng, topo, 1+rng.Intn(3*n), p.Wavelengths+2, 1<<16)
			for rep := 0; rep < 3; rep++ {
				want, err := plain.Price(step)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cached.Price(step)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Duration) != math.Float64bits(want.Duration) ||
					got.Rounds != want.Rounds || got.WavelengthsUsed != want.WavelengthsUsed {
					t.Fatalf("n=%d trial %d rep %d: cached %+v, plain %+v", n, trial, rep, got, want)
				}
				// Same active pattern, new sizes: the hit re-times from
				// this step's bytes.
				for i := range step {
					if step[i].Bytes > 0 {
						step[i].Bytes = 1 + int64(rng.Intn(1<<20))
					}
				}
			}
		}
	}
	if hits, builds := c.Stats(); hits == 0 || builds == 0 {
		t.Fatalf("cache unused: %d hits, %d builds", hits, builds)
	}
}

// TestPriceColoringHitAllocationFree: once the cache holds a step's
// coloring, pricing that step again — the hit path — allocates nothing.
func TestPriceColoringHitAllocationFree(t *testing.T) {
	topo := ring.MustNew(32)
	p := DefaultParams()
	p.Wavelengths = 4
	sp, err := NewStepPricer(topo, p, wdm.FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	sp.UseColorings(wdm.NewColoringCache())
	step := randomStep(rand.New(rand.NewSource(3)), topo, 64, 3, 1<<20)
	first, err := sp.Price(step)
	if err != nil {
		t.Fatal(err)
	}
	if first.Rounds < 2 {
		t.Fatalf("step fits %d round(s); want a multi-round step", first.Rounds)
	}
	var res StepResult
	allocs := testing.AllocsPerRun(100, func() {
		res, err = sp.Price(step)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("cache-hit Price allocated %.1f times per call", allocs)
	}
	if res.Duration != first.Duration || res.Assignments != nil {
		t.Fatalf("hit result %+v, first %+v", res, first)
	}
}
