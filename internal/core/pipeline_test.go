package core

import (
	"math/rand"
	"reflect"
	"testing"

	"wrht/internal/collective"
)

func TestPipelinedScheduleCorrectness(t *testing.T) {
	cases := []struct{ n, w, m, chunks, elems int }{
		{8, 2, 3, 2, 16},
		{16, 4, 3, 4, 64},
		{16, 4, 3, 7, 65},
		{27, 8, 3, 3, 100},
		{100, 16, 7, 5, 50},
		{64, 64, 9, 8, 33},
		{16, 4, 3, 32, 17}, // more chunks than elements per chunk
	}
	for _, c := range cases {
		for _, striping := range []bool{false, true} {
			p := mustPlan(t, c.n, c.w, Options{M: c.m, Policy: A2AFormula, Striping: striping})
			s, err := p.PipelinedSchedule(c.elems, c.chunks)
			if err != nil {
				t.Fatal(err)
			}
			if err := collective.VerifyAllReduce(s); err != nil {
				t.Fatalf("n=%d m=%d chunks=%d striping=%v: %v", c.n, c.m, c.chunks, striping, err)
			}
			want := p.NumSteps() + c.chunks - 1
			if got := s.NumSteps(); got != want {
				t.Fatalf("n=%d chunks=%d: steps=%d, want %d", c.n, c.chunks, got, want)
			}
		}
	}
}

func TestPipelinedChunks1EqualsPlain(t *testing.T) {
	p := mustPlan(t, 16, 4, Options{M: 3, Policy: A2AFormula})
	a, err := p.PipelinedSchedule(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Schedule(64)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSteps() != b.NumSteps() || a.TotalTransfers() != b.TotalTransfers() {
		t.Fatalf("chunks=1 differs from plain: %d/%d vs %d/%d",
			a.NumSteps(), a.TotalTransfers(), b.NumSteps(), b.TotalTransfers())
	}
}

func TestPipelinedValidation(t *testing.T) {
	p := mustPlan(t, 8, 2, Options{M: 3, Policy: A2AFormula})
	if _, err := p.PipelinedSchedule(16, 0); err == nil {
		t.Fatal("chunks=0 accepted")
	}
	if _, err := p.PipelinedSchedule(-1, 2); err == nil {
		t.Fatal("negative elems accepted")
	}
}

func TestPipelinedTrafficConserved(t *testing.T) {
	// Pipelining reorders work; total traffic must be identical.
	p := mustPlan(t, 27, 8, Options{M: 3, Policy: A2AFormula})
	plain, err := p.Schedule(999)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := p.PipelinedSchedule(999, 6)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalTrafficElems() != piped.TotalTrafficElems() {
		t.Fatalf("traffic %d vs %d", plain.TotalTrafficElems(), piped.TotalTrafficElems())
	}
}

// TestClassedPlansMatchBoxed: Plan.ClassSchedule and
// Plan.PipelinedClassSchedule expand to exactly their boxed oracles, certify
// at least as many steps as fingerprinting the boxed schedule does, and (at
// small N) still compute an all-reduce. N covers primes, powers and random
// non-powers up to 3000; W ∈ {1, 8, 64}; chunks ∈ {1, 2, 64}; elems covers
// one element, fewer elements than nodes, and a large buffer.
func TestClassedPlansMatchBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ns := []int{2, 3, 7, 27, 61, 64, 1024, 2039}
	for i := 0; i < 3; i++ {
		ns = append(ns, 2+rng.Intn(2999))
	}
	priced := 0
	for _, n := range ns {
		for _, w := range []int{1, 8, 64} {
			opts := DefaultOptions()
			opts.Striping = rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				opts.M = 2 + rng.Intn(8)
			}
			p, err := BuildPlan(n, w, opts)
			if err != nil {
				continue // no feasible plan for this budget
			}
			priced++
			elems := []int{1, 1 + rng.Intn(n), 1 << 20}[rng.Intn(3)]
			for _, chunks := range []int{0, 1, 2, 64} {
				var want *collective.Schedule
				var cls *collective.ClassSchedule
				if chunks == 0 { // the unpipelined lowering
					want, err = p.Schedule(elems)
					if err == nil {
						cls, err = p.ClassSchedule(elems)
					}
				} else {
					want, err = p.PipelinedSchedule(elems, chunks)
					if err == nil {
						cls, err = p.PipelinedClassSchedule(elems, chunks)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				got := cls.Expand()
				if !reflect.DeepEqual(normalizeSteps(got), normalizeSteps(want)) {
					t.Fatalf("n=%d w=%d m=%d chunks=%d elems=%d: classed lowering diverges from boxed",
						n, w, p.M, chunks, elems)
				}
				cs := want.Compact()
				ref := cs.Classes()
				c, _, _ := cls.CertStats()
				r, _, _ := ref.CertStats()
				if c < r {
					t.Fatalf("n=%d w=%d m=%d chunks=%d: %d certified steps, fingerprint certifies %d",
						n, w, p.M, chunks, c, r)
				}
				if n <= 64 && elems < 1<<12 {
					if err := collective.VerifyAllReduce(got); err != nil {
						t.Fatalf("n=%d w=%d m=%d chunks=%d elems=%d: %v", n, w, p.M, chunks, elems, err)
					}
				}
				ref.Release()
				cs.Release()
				cls.Release()
			}
		}
	}
	if priced < 2*len(ns) {
		t.Fatalf("only %d of %d (n, w) plans built", priced, 3*len(ns))
	}
}

// TestClassScheduleCertifiesRaggedLevels: at m=3 and a node count that is
// not a power of three, ragged tree levels whose leftover group is a lone
// node certify through the builder's orbit detection.
func TestClassScheduleCertifiesRaggedLevels(t *testing.T) {
	for _, n := range []int{1024, 2047, 3001} {
		p := mustPlan(t, n, 64, Options{M: 3, Policy: A2AFormula, Striping: true})
		cls, err := p.ClassSchedule(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if cert, _, _ := cls.CertStats(); cert < 4 {
			t.Fatalf("n=%d m=3: %d of %d steps certified, want >= 4", n, cert, cls.NumSteps())
		}
		cls.Release()
	}
}

// normalizeSteps drops the distinction between nil and empty transfer
// lists (the classed form expands empty steps as nil).
func normalizeSteps(s *collective.Schedule) *collective.Schedule {
	c := *s
	c.Steps = append([]collective.Step(nil), s.Steps...)
	for i := range c.Steps {
		if len(c.Steps[i].Transfers) == 0 {
			c.Steps[i].Transfers = nil
		}
	}
	return &c
}
