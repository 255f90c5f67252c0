package collective

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wrht/internal/ring"
	"wrht/internal/tensor"
)

// TestRingAllReduceClassedExpandEquality: the O(N) classed generator expands
// to exactly the boxed ring schedule, including ragged and tiny buffers
// (zero-length chunks) where the chunk-ring rotation must stay exact.
func TestRingAllReduceClassedExpandEquality(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 23, 64} {
		for _, elems := range []int{0, 1, 7, n - 1, n, n + 1, 1000} {
			if elems < 0 {
				continue
			}
			boxed, err := RingAllReduce(n, elems)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := RingAllReduceClassed(n, elems)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cls.TotalTransfers(), boxed.TotalTransfers(); got != want {
				t.Fatalf("n=%d elems=%d: classed transfers %d, want %d", n, elems, got, want)
			}
			if got, want := cls.TotalTrafficElems(), boxed.TotalTrafficElems(); got != want {
				t.Fatalf("n=%d elems=%d: classed traffic %d, want %d", n, elems, got, want)
			}
			if !reflect.DeepEqual(normalize(cls.Expand()), normalize(boxed)) {
				t.Fatalf("n=%d elems=%d: classed ring schedule diverges from boxed", n, elems)
			}
			for s := 0; s < cls.NumSteps(); s++ {
				if _, _, disjoint, perm, ok := cls.Sym(s); !ok || !disjoint || !perm {
					t.Fatalf("n=%d elems=%d step %d: ring step lost its certificate (ok=%v disjoint=%v perm=%v)",
						n, elems, s, ok, disjoint, perm)
				}
			}
			cls.Release()
		}
	}
}

// TestClassesFingerprintRoundTrip: Compact → Classes → Expand reproduces the
// boxed schedule exactly for every canonical algorithm (the fingerprint is
// lossless whichever steps it certifies or materializes).
func TestClassesFingerprintRoundTrip(t *testing.T) {
	builders := map[string]func(n, elems int) (*Schedule, error){
		"ring":     RingAllReduce,
		"rd":       RecursiveDoubling,
		"hd":       HalvingDoubling,
		"binomial": BinomialTree,
		"a2a":      AllToAllAllReduce,
	}
	for name, build := range builders {
		for _, n := range []int{2, 3, 5, 8, 16, 23} {
			for _, elems := range []int{0, 1, 7, 64, 1000} {
				s, err := build(n, elems)
				if err != nil {
					t.Fatal(err)
				}
				cs := s.Compact()
				cls := cs.Classes()
				if got, want := cls.TotalTransfers(), cs.TotalTransfers(); got != want {
					t.Fatalf("%s n=%d: classed transfers %d, want %d", name, n, got, want)
				}
				if got, want := cls.TotalTrafficElems(), cs.TotalTrafficElems(); got != want {
					t.Fatalf("%s n=%d: classed traffic %d, want %d", name, n, got, want)
				}
				if !reflect.DeepEqual(normalize(cls.Expand()), normalize(s)) {
					t.Fatalf("%s n=%d elems=%d: fingerprint round trip diverged", name, n, elems)
				}
				if err := cls.Validate(); err != nil {
					t.Fatalf("%s n=%d: %v", name, n, err)
				}
				cls.Release()
				cs.Release()
			}
		}
	}
}

// TestClassesDetectsRingSymmetry: the fingerprint recovers the rotational
// certificate of ring steps from the raw compact transfers (orbit of one,
// stride one, link-disjoint, permutation).
func TestClassesDetectsRingSymmetry(t *testing.T) {
	s, err := RingAllReduce(16, 160)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Compact()
	cls := cs.Classes()
	for si := 0; si < cls.NumSteps(); si++ {
		period, blocks, disjoint, perm, ok := cls.Sym(si)
		if !ok || period != 1 || blocks != 16 || !disjoint || !perm {
			t.Fatalf("step %d: cert (p=%d b=%d dj=%v perm=%v ok=%v), want (1, 16, true, true, true)",
				si, period, blocks, disjoint, perm, ok)
		}
		if lo, hi := cls.ClassBounds(si); hi-lo != 1 {
			t.Fatalf("step %d: %d classes for uniform chunks, want 1", si, hi-lo)
		}
	}
	cls.Release()
	cs.Release()
}

// randomSchedule builds a valid random schedule: arbitrary transfer patterns
// with mixed ops, routing, widths, and region shapes (including zero-length
// regions), never writing conflicting copies (each destination region is
// written by at most one transfer per step).
func randomSchedule(rng *rand.Rand, n, elems, steps int) *Schedule {
	s := &Schedule{Algorithm: "random", N: n, Elems: elems}
	chunks := tensor.Chunks(elems, n)
	for st := 0; st < steps; st++ {
		step := Step{Label: fmt.Sprintf("random %d", st)}
		used := map[int]bool{}
		for k, lim := 0, rng.Intn(2*n+1); k < lim; k++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if src == dst || used[dst] {
				continue
			}
			used[dst] = true
			tr := Transfer{
				Src: src, Dst: dst,
				Region: chunks[rng.Intn(n)],
				Op:     Op(rng.Intn(2)),
				Width:  rng.Intn(4),
			}
			if rng.Intn(2) == 0 {
				tr.Routed = true
				tr.Dir = ring.Direction(rng.Intn(2))
			}
			step.Transfers = append(step.Transfers, tr)
		}
		s.Steps = append(s.Steps, step)
	}
	return s
}

// randomSymmetricSchedule builds a valid schedule whose steps are genuine
// block-major rotational orbits: a uniform shift pattern replicated around
// the ring, exercising the detection and certificate paths.
func randomSymmetricSchedule(rng *rand.Rand, n, elems, steps int) *Schedule {
	s := &Schedule{Algorithm: "random-sym", N: n, Elems: elems}
	chunks := tensor.Chunks(elems, n)
	for st := 0; st < steps; st++ {
		step := Step{Label: fmt.Sprintf("sym %d", st)}
		shift := 1 + rng.Intn(n-1)
		width := rng.Intn(3)
		op := Op(rng.Intn(2))
		routed := rng.Intn(2) == 0
		dir := ring.Direction(rng.Intn(2))
		rot := rng.Intn(n)
		for i := 0; i < n; i++ {
			tr := Transfer{
				Src: i, Dst: (i + shift) % n,
				Region: chunks[(i+rot)%n],
				Op:     op,
				Width:  width,
			}
			if routed {
				tr.Routed, tr.Dir = true, dir
			}
			step.Transfers = append(step.Transfers, tr)
		}
		s.Steps = append(s.Steps, step)
	}
	return s
}

// TestClassesRandomizedRoundTrip (property): for randomized schedules —
// symmetric and asymmetric alike — boxed → compact → boxed and
// compact → classes → boxed are both the identity, and the classed totals
// match. This is the structural half of the classed-equality property; the
// pricing half lives in internal/runner.
func TestClassesRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		elems := rng.Intn(4000)
		var s *Schedule
		if trial%2 == 0 {
			s = randomSchedule(rng, n, elems, 1+rng.Intn(5))
		} else {
			s = randomSymmetricSchedule(rng, n, elems, 1+rng.Intn(5))
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random schedule: %v", trial, err)
		}
		cs := s.Compact()
		if !reflect.DeepEqual(normalize(cs.Expand()), normalize(s)) {
			t.Fatalf("trial %d: compact round trip diverged", trial)
		}
		cls := cs.Classes()
		if !reflect.DeepEqual(normalize(cls.Expand()), normalize(s)) {
			t.Fatalf("trial %d: classes round trip diverged", trial)
		}
		if got, want := cls.TotalTransfers(), s.TotalTransfers(); got != want {
			t.Fatalf("trial %d: classed transfers %d, want %d", trial, got, want)
		}
		if got, want := cls.TotalTrafficElems(), s.TotalTrafficElems(); got != want {
			t.Fatalf("trial %d: classed traffic %d, want %d", trial, got, want)
		}
		cls.Release()
		cs.Release()
	}
}

// TestCertStatsPartition: CertStats partitions the steps — certified +
// materialized = total, demoted ⊆ materialized — and agrees with the
// per-step certificates Sym reports. The ring all-reduce certifies every
// step; arbitrary random patterns certify none.
func TestCertStatsPartition(t *testing.T) {
	ringSched, err := RingAllReduce(16, 160)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cases := []*Schedule{
		ringSched,
		randomSymmetricSchedule(rng, 12, 600, 3),
		randomSchedule(rng, 9, 300, 4),
	}
	for _, s := range cases {
		cs := s.Compact()
		cls := cs.Classes()
		cert, mat, dem := cls.CertStats()
		if cert+mat != cls.NumSteps() {
			t.Fatalf("%s: certified %d + materialized %d != steps %d",
				s.Algorithm, cert, mat, cls.NumSteps())
		}
		if dem < 0 || dem > mat {
			t.Fatalf("%s: demoted %d outside [0, materialized %d]", s.Algorithm, dem, mat)
		}
		symSteps := 0
		for si := 0; si < cls.NumSteps(); si++ {
			if _, _, _, _, ok := cls.Sym(si); ok {
				symSteps++
			}
		}
		if symSteps != cert {
			t.Fatalf("%s: %d steps report certificates via Sym, CertStats says %d",
				s.Algorithm, symSteps, cert)
		}
		cls.Release()
		cs.Release()
	}

	// The ring is fully certified end to end.
	cs := ringSched.Compact()
	cls := cs.Classes()
	if cert, mat, dem := cls.CertStats(); cert != cls.NumSteps() || mat != 0 || dem != 0 {
		t.Fatalf("ring CertStats = (%d, %d, %d), want (%d, 0, 0)", cert, mat, dem, cls.NumSteps())
	}
	if cls.NumClasses() == 0 {
		t.Fatal("ring schedule reports zero pricing classes")
	}
	cls.Release()
	cs.Release()
}

// TestClassedGeneratorsMatchBoxed: RD, HD and binomial emitted straight into
// the classed builder expand to exactly the boxed oracle, certify at least
// as many steps as fingerprinting the boxed schedule does, and (at small N)
// still compute an all-reduce. N covers powers of two, primes and random
// non-powers up to 3000; elems covers one element, fewer elements than
// nodes (zero-length halves) and a large buffer.
func TestClassedGeneratorsMatchBoxed(t *testing.T) {
	gens := []struct {
		name    string
		boxed   func(n, elems int) (*Schedule, error)
		classed func(n, elems int) (*ClassSchedule, error)
	}{
		{"rd", RecursiveDoubling, RecursiveDoublingClassed},
		{"hd", HalvingDoubling, HalvingDoublingClassed},
		{"binomial", BinomialTree, BinomialTreeClassed},
	}
	rng := rand.New(rand.NewSource(14))
	ns := []int{2, 3, 7, 8, 12, 31, 64, 97, 1024, 2039, 3000}
	for i := 0; i < 6; i++ {
		ns = append(ns, 2+rng.Intn(2999))
	}
	for _, n := range ns {
		for _, elems := range []int{1, 1 + rng.Intn(n), 1 << 20} {
			for _, g := range gens {
				want, err := g.boxed(n, elems)
				if err != nil {
					t.Fatal(err)
				}
				cls, err := g.classed(n, elems)
				if err != nil {
					t.Fatal(err)
				}
				got := cls.Expand()
				if !reflect.DeepEqual(normalize(got), normalize(want)) {
					t.Fatalf("%s n=%d elems=%d: classed generator diverges from boxed", g.name, n, elems)
				}
				if err := cls.Validate(); err != nil {
					t.Fatalf("%s n=%d elems=%d: %v", g.name, n, elems, err)
				}
				cs := want.Compact()
				ref := cs.Classes()
				if c, r := certified(cls), certified(ref); c < r {
					t.Fatalf("%s n=%d elems=%d: %d certified steps, fingerprint certifies %d", g.name, n, elems, c, r)
				}
				if n <= 64 && elems < 1<<12 {
					if err := VerifyAllReduce(got); err != nil {
						t.Fatalf("%s n=%d elems=%d: %v", g.name, n, elems, err)
					}
				}
				ref.Release()
				cs.Release()
				cls.Release()
			}
		}
	}
}

func certified(c *ClassSchedule) int {
	cert, _, _ := c.CertStats()
	return cert
}

// TestPermFlagExact: every step carries its partial-permutation flag. On a
// materialized step it is exactly "sources pairwise distinct and
// destinations pairwise distinct"; on a certified step it is never set
// unless that holds. A node sending twice, or receiving twice, clears it.
func TestPermFlagExact(t *testing.T) {
	isPerm := func(st Step) bool {
		src, dst := map[int]bool{}, map[int]bool{}
		for _, tr := range st.Transfers {
			if src[tr.Src] || dst[tr.Dst] {
				return false
			}
			src[tr.Src], dst[tr.Dst] = true, true
		}
		return true
	}
	check := func(s *Schedule) {
		t.Helper()
		cs := s.Compact()
		cls := cs.Classes()
		for si, st := range s.Steps {
			_, _, _, perm, sym := cls.Sym(si)
			want := isPerm(st)
			if perm && !want {
				t.Fatalf("%s step %d: perm set on a step that is not a partial permutation", s.Algorithm, si)
			}
			if !sym && perm != want {
				t.Fatalf("%s step %d (materialized): perm=%v, want %v", s.Algorithm, si, perm, want)
			}
		}
		cls.Release()
		cs.Release()
	}

	full := tensor.Region{Len: 8}
	check(&Schedule{Algorithm: "twice", N: 6, Elems: 8, Steps: []Step{
		{Label: "sends twice", Transfers: []Transfer{
			{Src: 0, Dst: 1, Region: full}, {Src: 0, Dst: 2, Region: full}, {Src: 3, Dst: 4, Region: full},
		}},
		{Label: "receives twice", Transfers: []Transfer{
			{Src: 0, Dst: 5, Region: full}, {Src: 1, Dst: 5, Region: full}, {Src: 2, Dst: 3, Region: full},
		}},
		{Label: "permutation", Transfers: []Transfer{
			{Src: 0, Dst: 5, Region: full}, {Src: 5, Dst: 0, Region: full}, {Src: 2, Dst: 3, Region: full},
		}},
		{Label: "empty"},
	}})

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		elems := rng.Intn(500)
		if trial%2 == 0 {
			check(randomSchedule(rng, n, elems, 1+rng.Intn(5)))
		} else {
			check(randomSymmetricSchedule(rng, n, elems, 1+rng.Intn(5)))
		}
	}
}
