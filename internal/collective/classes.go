package collective

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"wrht/internal/ring"
	"wrht/internal/tensor"
)

// ClassSchedule is the symmetry-aware pricing fingerprint of a schedule.
//
// Where CompactSchedule stores every point-to-point transfer, ClassSchedule
// stores, per step, (a) the transfer equivalence classes by (region length,
// hop count, stripe width) — the only coordinates substrate pricing depends
// on, since a step's cost is its slowest transfer plus fixed overheads — and
// (b) a rotational-symmetry certificate for the step's demand pattern: the
// step is a representative orbit of transfers replicated `blocks` times at
// node stride `period`, block-major, with the orbit's directed links confined
// to one period-wide window (so replicas are pairwise link-disjoint). A
// `disjoint` flag refines the certificate (all transfers in the step are
// pairwise link-disjoint, so wavelength assignment is trivial for any
// subset), and every step — certified or not — carries a `perm` flag
// (every node sends at most one and receives at most one transfer, the
// condition under which a non-blocking electrical cluster gives every flow
// its full link rate).
//
// Steps whose pattern is not provably symmetric are stored materialized
// (the verified fallback): their full transfer list is kept and priced by
// the exact per-transfer path. Symmetric steps can also be materialized on
// demand (ForEachTransfer) — region data is kept in one of three exact
// forms (uniform, rotated chunk ring, or explicit per-transfer) — so a
// classed runner can always fall back per step without losing bit-equality.
//
// The representation is what turns O(N²) schedule pricing into ~O(N): a
// ring all-reduce stores 2(N-1) steps of one orbit transfer and ≤3 classes
// each, instead of 2N(N-1) transfers.
type ClassSchedule struct {
	Algorithm string
	N         int
	Elems     int

	steps []classStep

	// Class columns; step s owns [steps[s].clsLo, steps[s].clsHi).
	clsCount, clsLen, clsHops, clsWidth []int32

	// Orbit columns (symmetric steps); step s owns [orbLo, orbHi).
	orbSrc, orbDst, orbWidth []int32
	orbDir                   []ring.Direction
	orbRouted                []bool
	orbOp                    []Op

	// lens/offs hold explicit per-transfer regions (block-major global
	// order) for lenExplicit steps; step s owns [lenLo, lenLo+transfers).
	lens, offs []int32

	// lenRing/offRing are the shared chunk regions lenRotated steps index
	// with a per-step rotation (the ring all-reduce generator's form).
	lenRing, offRing []int32

	// Fallback transfer columns (materialized steps); step s owns [fbLo, fbHi).
	fbSrc, fbDst, fbLen, fbOff, fbWidth []int32
	fbDir                               []ring.Direction
	fbRouted                            []bool
	fbOp                                []Op

	// certSteps counts steps whose symmetry certificate verified;
	// demotedSteps counts claimed-symmetric steps that failed verification
	// and were materialized (the observability layer surfaces both).
	certSteps, demotedSteps int32
}

// TransferClass is one pricing equivalence class: Count transfers moving Len
// elements over Hops ring links at stripe-width hint Width (0 = substrate
// default). Every coordinate substrate pricing reads is here; Op and
// direction are pricing-neutral and live only in the orbit/fallback columns.
type TransferClass struct {
	Count, Len, Hops, Width int32
}

type lenMode int8

const (
	lenUniform lenMode = iota
	lenRotated
	lenExplicit
)

type classStep struct {
	label string

	sym      bool
	period   int32
	blocks   int32
	disjoint bool
	perm     bool

	clsLo, clsHi int32
	orbLo, orbHi int32
	fbLo, fbHi   int32

	mode lenMode
	// lenParam is the uniform region length (lenUniform), the rotation
	// offset into lenRing (lenRotated), or unused (lenExplicit).
	lenParam int32
	// offParam is the uniform region offset (lenUniform only).
	offParam int32
	lenLo    int32
}

// NumSteps returns the number of synchronous steps.
func (c *ClassSchedule) NumSteps() int { return len(c.steps) }

// Nodes returns the node count (energy accounting accepts any schedule form
// through this method set).
func (c *ClassSchedule) Nodes() int { return c.N }

// StepLabel returns step s's label.
func (c *ClassSchedule) StepLabel(s int) string { return c.steps[s].label }

// StepTransfers returns the number of transfers in step s.
func (c *ClassSchedule) StepTransfers(s int) int {
	st := &c.steps[s]
	if st.sym {
		return int(st.orbHi-st.orbLo) * int(st.blocks)
	}
	return int(st.fbHi - st.fbLo)
}

// CertStats reports how the builder classified this schedule's steps:
// certified is the number of steps whose symmetry certificate verified
// (priced through the O(N)-free classed path), materialized is the number of
// steps priced transfer-by-transfer, and demoted counts the subset of
// materialized steps that *claimed* a certificate but failed verification —
// the silent fallbacks the flight recorder exists to surface.
func (c *ClassSchedule) CertStats() (certified, materialized, demoted int) {
	return int(c.certSteps), len(c.steps) - int(c.certSteps), int(c.demotedSteps)
}

// NumClasses returns the total number of pricing equivalence classes across
// all certified steps.
func (c *ClassSchedule) NumClasses() int { return len(c.clsCount) }

// TotalTransfers returns the number of point-to-point transfers.
func (c *ClassSchedule) TotalTransfers() int {
	n := 0
	for s := range c.steps {
		n += c.StepTransfers(s)
	}
	return n
}

// TotalTrafficElems returns the total number of elements moved.
func (c *ClassSchedule) TotalTrafficElems() int64 {
	var n int64
	for s := range c.steps {
		st := &c.steps[s]
		if st.sym {
			for i := st.clsLo; i < st.clsHi; i++ {
				n += int64(c.clsCount[i]) * int64(c.clsLen[i])
			}
		} else {
			for i := st.fbLo; i < st.fbHi; i++ {
				n += int64(c.fbLen[i])
			}
		}
	}
	return n
}

// Sym reports step s's symmetry certificate: ok is false for materialized
// (fallback) steps. disjoint means every transfer pair in the step is
// link-disjoint. perm means the step is a partial permutation (each node
// sends ≤1 and receives ≤1 transfer); it is set on certified and
// materialized steps alike, exactly on materialized ones and never falsely
// on certified ones.
func (c *ClassSchedule) Sym(s int) (period, blocks int, disjoint, perm, ok bool) {
	st := &c.steps[s]
	return int(st.period), int(st.blocks), st.disjoint, st.perm, st.sym
}

// ClassBounds returns the half-open class-column range of step s
// (empty for fallback steps — they price per transfer).
func (c *ClassSchedule) ClassBounds(s int) (lo, hi int) {
	return int(c.steps[s].clsLo), int(c.steps[s].clsHi)
}

// Class returns the class at column index i.
func (c *ClassSchedule) Class(i int) TransferClass {
	return TransferClass{Count: c.clsCount[i], Len: c.clsLen[i], Hops: c.clsHops[i], Width: c.clsWidth[i]}
}

// OrbitBounds returns the half-open orbit-column range of symmetric step s.
func (c *ClassSchedule) OrbitBounds(s int) (lo, hi int) {
	return int(c.steps[s].orbLo), int(c.steps[s].orbHi)
}

// OrbitAt returns the orbit transfer pattern at column index i (block 0's
// endpoints; block b adds b·period to both, mod N). The region is not part
// of the pattern — lengths vary per block and live in the classes.
func (c *ClassSchedule) OrbitAt(i int) (src, dst, width int, dir ring.Direction, routed bool) {
	return int(c.orbSrc[i]), int(c.orbDst[i]), int(c.orbWidth[i]), c.orbDir[i], c.orbRouted[i]
}

// region returns transfer j (step-local, block-major) of symmetric step st.
func (c *ClassSchedule) region(st *classStep, j int) tensor.Region {
	switch st.mode {
	case lenUniform:
		return tensor.Region{Offset: int(st.offParam), Len: int(st.lenParam)}
	case lenRotated:
		k := (j + int(st.lenParam)) % len(c.lenRing)
		return tensor.Region{Offset: int(c.offRing[k]), Len: int(c.lenRing[k])}
	default:
		return tensor.Region{Offset: int(c.offs[int(st.lenLo)+j]), Len: int(c.lens[int(st.lenLo)+j])}
	}
}

// ForEachTransfer materializes step s's transfers in the exact order the
// compact form stores them (block-major for symmetric steps), calling fn for
// each. This is the per-step fallback path of the classed runners and the
// bridge the equality tests walk.
func (c *ClassSchedule) ForEachTransfer(s int, fn func(Transfer)) {
	st := &c.steps[s]
	if !st.sym {
		for i := st.fbLo; i < st.fbHi; i++ {
			fn(Transfer{
				Src: int(c.fbSrc[i]), Dst: int(c.fbDst[i]),
				Region: tensor.Region{Offset: int(c.fbOff[i]), Len: int(c.fbLen[i])},
				Op:     c.fbOp[i],
				Routed: c.fbRouted[i], Dir: c.fbDir[i],
				Width: int(c.fbWidth[i]),
			})
		}
		return
	}
	o := int(st.orbHi - st.orbLo)
	j := 0
	for b := 0; b < int(st.blocks); b++ {
		shift := b * int(st.period)
		for k := 0; k < o; k++ {
			i := int(st.orbLo) + k
			fn(Transfer{
				Src:    (int(c.orbSrc[i]) + shift) % c.N,
				Dst:    (int(c.orbDst[i]) + shift) % c.N,
				Region: c.region(st, j),
				Op:     c.orbOp[i],
				Routed: c.orbRouted[i], Dir: c.orbDir[i],
				Width: int(c.orbWidth[i]),
			})
			j++
		}
	}
}

// Expand materializes the full boxed schedule (tests and inspection).
func (c *ClassSchedule) Expand() *Schedule {
	s := &Schedule{Algorithm: c.Algorithm, N: c.N, Elems: c.Elems, Steps: make([]Step, c.NumSteps())}
	for si := range s.Steps {
		st := Step{Label: c.steps[si].label}
		if n := c.StepTransfers(si); n > 0 {
			st.Transfers = make([]Transfer, 0, n)
			c.ForEachTransfer(si, func(tr Transfer) { st.Transfers = append(st.Transfers, tr) })
		}
		s.Steps[si] = st
	}
	return s
}

// Validate checks the structural invariants pricing relies on: node indices
// in range, no self-transfers, non-negative regions and widths, sane
// certificates. (Overlapping-write validation needs the full per-transfer
// form and lives on Schedule/CompactSchedule.)
func (c *ClassSchedule) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("collective: class schedule has N=%d", c.N)
	}
	if c.Elems < 0 {
		return fmt.Errorf("collective: class schedule has Elems=%d", c.Elems)
	}
	for si := range c.steps {
		st := &c.steps[si]
		if st.sym {
			if st.period < 1 || st.blocks < 2 || int(st.period)*int(st.blocks) > c.N {
				return fmt.Errorf("collective: step %d certificate period=%d blocks=%d outside N=%d",
					si, st.period, st.blocks, c.N)
			}
			for i := st.orbLo; i < st.orbHi; i++ {
				if c.orbSrc[i] < 0 || int(c.orbSrc[i]) >= c.N || c.orbDst[i] < 0 || int(c.orbDst[i]) >= c.N {
					return fmt.Errorf("collective: step %d orbit transfer node out of range [0,%d)", si, c.N)
				}
				if c.orbSrc[i] == c.orbDst[i] {
					return fmt.Errorf("collective: step %d orbit self-transfer", si)
				}
				if c.orbWidth[i] < 0 {
					return fmt.Errorf("collective: step %d orbit negative width", si)
				}
			}
			for i := st.clsLo; i < st.clsHi; i++ {
				if c.clsLen[i] < 0 || c.clsCount[i] < 1 {
					return fmt.Errorf("collective: step %d class (len=%d count=%d)", si, c.clsLen[i], c.clsCount[i])
				}
			}
			continue
		}
		for i := st.fbLo; i < st.fbHi; i++ {
			if c.fbSrc[i] < 0 || int(c.fbSrc[i]) >= c.N || c.fbDst[i] < 0 || int(c.fbDst[i]) >= c.N {
				return fmt.Errorf("collective: step %d transfer node out of range [0,%d)", si, c.N)
			}
			if c.fbSrc[i] == c.fbDst[i] {
				return fmt.Errorf("collective: step %d self-transfer", si)
			}
			if c.fbLen[i] < 0 || c.fbWidth[i] < 0 {
				return fmt.Errorf("collective: step %d negative region or width", si)
			}
		}
	}
	return nil
}

// classPool recycles ClassSchedule backing arrays between builds.
var classPool = sync.Pool{New: func() any { return new(ClassSchedule) }}

// Release returns the schedule's arrays to the builder pool. Only release
// schedules no other goroutine or cache still references.
func (c *ClassSchedule) Release() {
	classPool.Put(c)
}

// ClassScheduleBuilder assembles a ClassSchedule step by step, and it is
// the one place steps are certified. Every step is verified as it closes:
//
//   - a step written through StartStep/Add is searched for its smallest
//     block-major rotational orbit; when the orbit's link-window certificate
//     verifies, the step is stored in orbit form, otherwise it stays
//     materialized;
//   - a step whose orbit was claimed (StartSymRotated) and fails
//     verification is silently materialized instead (the verified
//     fallback).
//
// So a finished schedule's certificates always hold, whichever generator
// wrote it.
type ClassScheduleBuilder struct {
	cs *ClassSchedule

	open bool

	// ringClasses are the precomputed (len → count) classes of the shared
	// chunk ring, reused by every lenRotated step.
	ringClasses []TransferClass

	// lastRot is the index of the most recent certified lenRotated step
	// (-1 = none); a rotated step with the same orbit, period and blocks
	// reuses its certificate and classes.
	lastRot int

	// mark is the partial-permutation scratch: mark[src] and mark[N+dst]
	// hold the epoch of the step that last used that endpoint.
	mark  []int32
	epoch int32

	// scratch
	ivCW, ivCCW []interval
	clsScratch  map[classKey]int32
	clsOrder    []classKey
}

type interval struct{ start, h int32 }

type classKey struct{ ln, hops, width int32 }

// NewClassScheduleBuilder starts a schedule for n nodes over elems elements.
func NewClassScheduleBuilder(algorithm string, n, elems int) *ClassScheduleBuilder {
	cs := classPool.Get().(*ClassSchedule)
	cs.Algorithm, cs.N, cs.Elems = algorithm, n, elems
	for i := range cs.steps {
		cs.steps[i] = classStep{}
	}
	cs.steps = cs.steps[:0]
	cs.clsCount, cs.clsLen, cs.clsHops, cs.clsWidth = cs.clsCount[:0], cs.clsLen[:0], cs.clsHops[:0], cs.clsWidth[:0]
	cs.orbSrc, cs.orbDst, cs.orbWidth = cs.orbSrc[:0], cs.orbDst[:0], cs.orbWidth[:0]
	cs.orbDir, cs.orbRouted, cs.orbOp = cs.orbDir[:0], cs.orbRouted[:0], cs.orbOp[:0]
	cs.lens, cs.offs = cs.lens[:0], cs.offs[:0]
	cs.lenRing, cs.offRing = cs.lenRing[:0], cs.offRing[:0]
	cs.fbSrc, cs.fbDst, cs.fbLen, cs.fbOff, cs.fbWidth = cs.fbSrc[:0], cs.fbDst[:0], cs.fbLen[:0], cs.fbOff[:0], cs.fbWidth[:0]
	cs.fbDir, cs.fbRouted, cs.fbOp = cs.fbDir[:0], cs.fbRouted[:0], cs.fbOp[:0]
	cs.certSteps, cs.demotedSteps = 0, 0
	return &ClassScheduleBuilder{cs: cs, lastRot: -1, clsScratch: map[classKey]int32{}}
}

// Grow pre-sizes the builder for the expected step count and for the
// number of transfers written through Add (the columns a materialized step
// keeps). Symmetric steps store at least one orbit transfer each, so the
// orbit columns are sized by the step count.
func (b *ClassScheduleBuilder) Grow(steps, transfers int) {
	cs := b.cs
	cs.steps = slices.Grow(cs.steps, steps)
	cs.orbSrc, cs.orbDst, cs.orbWidth = slices.Grow(cs.orbSrc, steps), slices.Grow(cs.orbDst, steps), slices.Grow(cs.orbWidth, steps)
	cs.orbDir, cs.orbRouted, cs.orbOp = slices.Grow(cs.orbDir, steps), slices.Grow(cs.orbRouted, steps), slices.Grow(cs.orbOp, steps)
	cs.fbSrc, cs.fbDst = slices.Grow(cs.fbSrc, transfers), slices.Grow(cs.fbDst, transfers)
	cs.fbLen, cs.fbOff, cs.fbWidth = slices.Grow(cs.fbLen, transfers), slices.Grow(cs.fbOff, transfers), slices.Grow(cs.fbWidth, transfers)
	cs.fbDir, cs.fbRouted, cs.fbOp = slices.Grow(cs.fbDir, transfers), slices.Grow(cs.fbRouted, transfers), slices.Grow(cs.fbOp, transfers)
}

// SetLenRing installs the shared chunk regions lenRotated steps rotate over
// and precomputes their class multiset (identical for every rotation).
func (b *ClassScheduleBuilder) SetLenRing(chunks []tensor.Region) {
	cs := b.cs
	for _, r := range chunks {
		cs.lenRing = append(cs.lenRing, int32(r.Len))
		cs.offRing = append(cs.offRing, int32(r.Offset))
	}
	counts := map[int32]int32{}
	for _, l := range cs.lenRing {
		counts[l]++
	}
	lens := make([]int32, 0, len(counts))
	for l := range counts {
		lens = append(lens, l)
	}
	sort.Slice(lens, func(i, j int) bool { return lens[i] < lens[j] })
	b.ringClasses = b.ringClasses[:0]
	for _, l := range lens {
		b.ringClasses = append(b.ringClasses, TransferClass{Count: counts[l], Len: l})
	}
}

// StartStep opens a step whose transfers Add supplies one by one; when it
// closes, the builder certifies it if its transfers form a verifiable
// rotational orbit and keeps it materialized otherwise.
func (b *ClassScheduleBuilder) StartStep(label string) {
	b.closeStep()
	b.openStep(label, classStep{})
}

// Add appends a transfer to the step opened by StartStep.
func (b *ClassScheduleBuilder) Add(tr Transfer) {
	cs := b.cs
	st := &cs.steps[len(cs.steps)-1]
	if !b.open || st.sym {
		panic("collective: ClassScheduleBuilder.Add outside a StartStep step")
	}
	cs.fbSrc = append(cs.fbSrc, int32(tr.Src))
	cs.fbDst = append(cs.fbDst, int32(tr.Dst))
	cs.fbLen = append(cs.fbLen, int32(tr.Region.Len))
	cs.fbOff = append(cs.fbOff, int32(tr.Region.Offset))
	cs.fbWidth = append(cs.fbWidth, int32(tr.Width))
	cs.fbDir = append(cs.fbDir, tr.Dir)
	cs.fbRouted = append(cs.fbRouted, tr.Routed)
	cs.fbOp = append(cs.fbOp, tr.Op)
	st.fbHi++
}

// StartSymRotated opens a symmetric single-transfer-orbit step whose
// transfer j moves the shared chunk ring's region (j+rot) mod len(ring)
// (the ring all-reduce shape). SetLenRing must have been called first —
// without it the step has no region data to price or materialize from.
func (b *ClassScheduleBuilder) StartSymRotated(label string, period, blocks, rot int) {
	if len(b.cs.lenRing) == 0 {
		panic("collective: ClassScheduleBuilder.StartSymRotated before SetLenRing")
	}
	b.closeStep()
	b.openStep(label, classStep{
		sym: true, period: int32(period), blocks: int32(blocks),
		mode: lenRotated, lenParam: int32(rot),
	})
}

// AddOrbit appends one orbit (block 0) transfer to the open symmetric step.
func (b *ClassScheduleBuilder) AddOrbit(tr Transfer) {
	cs := b.cs
	st := &cs.steps[len(cs.steps)-1]
	if !b.open || !st.sym {
		panic("collective: ClassScheduleBuilder.AddOrbit outside a symmetric step")
	}
	cs.orbSrc = append(cs.orbSrc, int32(tr.Src))
	cs.orbDst = append(cs.orbDst, int32(tr.Dst))
	cs.orbWidth = append(cs.orbWidth, int32(tr.Width))
	cs.orbDir = append(cs.orbDir, tr.Dir)
	cs.orbRouted = append(cs.orbRouted, tr.Routed)
	cs.orbOp = append(cs.orbOp, tr.Op)
	st.orbHi++
}

// Finish seals and returns the schedule; the builder must not be used again.
func (b *ClassScheduleBuilder) Finish() *ClassSchedule {
	b.closeStep()
	return b.cs
}

func (b *ClassScheduleBuilder) openStep(label string, st classStep) {
	cs := b.cs
	st.label = label
	st.clsLo, st.clsHi = int32(len(cs.clsCount)), int32(len(cs.clsCount))
	st.orbLo, st.orbHi = int32(len(cs.orbSrc)), int32(len(cs.orbSrc))
	st.fbLo, st.fbHi = int32(len(cs.fbSrc)), int32(len(cs.fbSrc))
	cs.steps = append(cs.steps, st)
	b.open = true
}

// effArc resolves a transfer pattern's effective direction and hop count,
// mirroring the runner: routed transfers travel their pinned direction,
// unrouted ones the shortest (CW on ties).
func effArc(n, src, dst int, dir ring.Direction, routed bool) (ring.Direction, int) {
	cw := ((dst-src)%n + n) % n
	ccw := n - cw
	if routed {
		if dir == ring.CW {
			return ring.CW, cw
		}
		return ring.CCW, ccw
	}
	if cw <= ccw {
		return ring.CW, cw
	}
	return ring.CCW, ccw
}

// closeStep certifies the open step and computes its classes: a staged
// (StartStep) step goes through orbit detection, a claimed symmetric step
// through verification, and a failed claim demotes the step to
// materialized form.
func (b *ClassScheduleBuilder) closeStep() {
	if !b.open {
		return
	}
	b.open = false
	cs := b.cs
	si := len(cs.steps) - 1
	st := &cs.steps[si]
	if !st.sym {
		b.certifyStaged(st)
		return
	}
	o := int(st.orbHi - st.orbLo)
	if o == 0 {
		// An empty symmetric step is just an empty step.
		st.sym, st.perm = false, true
		return
	}
	if st.mode == lenRotated && b.lastRot >= 0 && b.sameRotation(&cs.steps[b.lastRot], st) {
		prev := &cs.steps[b.lastRot]
		st.disjoint, st.perm = prev.disjoint, prev.perm
		for i := prev.clsLo; i < prev.clsHi; i++ {
			cs.clsCount = append(cs.clsCount, cs.clsCount[i])
			cs.clsLen = append(cs.clsLen, cs.clsLen[i])
			cs.clsHops = append(cs.clsHops, cs.clsHops[i])
			cs.clsWidth = append(cs.clsWidth, cs.clsWidth[i])
		}
		st.clsHi += prev.clsHi - prev.clsLo
		b.lastRot = si
		cs.certSteps++
		return
	}
	if !b.verifySym(st, o) {
		b.demote(st, o)
		st.perm = b.isPermutation(st)
		cs.demotedSteps++
		return
	}
	b.buildClasses(st, o)
	if st.mode == lenRotated {
		b.lastRot = si
	}
	cs.certSteps++
}

// sameRotation reports whether rotated step st has certified step prev's
// certificate: the same single orbit transfer (up to its pricing-neutral
// Op), period and blocks over the same chunk ring.
func (b *ClassScheduleBuilder) sameRotation(prev, st *classStep) bool {
	cs := b.cs
	if st.orbHi-st.orbLo != 1 || prev.period != st.period || prev.blocks != st.blocks {
		return false
	}
	i, j := prev.orbLo, st.orbLo
	return cs.orbSrc[i] == cs.orbSrc[j] && cs.orbDst[i] == cs.orbDst[j] &&
		cs.orbWidth[i] == cs.orbWidth[j] && cs.orbDir[i] == cs.orbDir[j] &&
		cs.orbRouted[i] == cs.orbRouted[j]
}

// certifyStaged closes a step written through StartStep/Add. It sets the
// step's partial-permutation flag, detects the smallest block-major orbit
// of its transfers and, when the orbit's certificate verifies, moves the
// step into orbit form (uniform regions when every transfer moves the same
// region, explicit per-transfer regions otherwise). A detected orbit that
// fails verification counts as a demotion and the step stays materialized.
func (b *ClassScheduleBuilder) certifyStaged(st *classStep) {
	cs := b.cs
	st.perm = b.isPermutation(st)
	lo, hi := int(st.fbLo), int(st.fbHi)
	o, p := b.detectOrbit(lo, hi)
	if o == 0 {
		return
	}
	staged := *st
	st.sym, st.period, st.blocks = true, int32(p), int32((hi-lo)/o)
	uniform := true
	for i := lo + 1; i < hi && uniform; i++ {
		uniform = cs.fbLen[i] == cs.fbLen[lo] && cs.fbOff[i] == cs.fbOff[lo]
	}
	if uniform {
		st.mode, st.lenParam, st.offParam = lenUniform, cs.fbLen[lo], cs.fbOff[lo]
	} else {
		st.mode, st.lenLo = lenExplicit, int32(len(cs.lens))
		cs.lens = append(cs.lens, cs.fbLen[lo:hi]...)
		cs.offs = append(cs.offs, cs.fbOff[lo:hi]...)
	}
	cs.orbSrc = append(cs.orbSrc, cs.fbSrc[lo:lo+o]...)
	cs.orbDst = append(cs.orbDst, cs.fbDst[lo:lo+o]...)
	cs.orbWidth = append(cs.orbWidth, cs.fbWidth[lo:lo+o]...)
	cs.orbDir = append(cs.orbDir, cs.fbDir[lo:lo+o]...)
	cs.orbRouted = append(cs.orbRouted, cs.fbRouted[lo:lo+o]...)
	cs.orbOp = append(cs.orbOp, cs.fbOp[lo:lo+o]...)
	st.orbHi = st.orbLo + int32(o)
	if !b.verifySym(st, o) {
		b.truncateOrbit(st)
		*st = staged
		cs.demotedSteps++
		return
	}
	st.perm = staged.perm // exact, where verifySym's orbit-window flag may miss
	cs.fbSrc, cs.fbDst, cs.fbLen, cs.fbOff, cs.fbWidth = cs.fbSrc[:lo], cs.fbDst[:lo], cs.fbLen[:lo], cs.fbOff[:lo], cs.fbWidth[:lo]
	cs.fbDir, cs.fbRouted, cs.fbOp = cs.fbDir[:lo], cs.fbRouted[:lo], cs.fbOp[:lo]
	st.fbHi = st.fbLo
	b.buildClasses(st, o)
	cs.certSteps++
}

// isPermutation reports whether materialized step st is a partial
// permutation: its sources are pairwise distinct and its destinations are
// pairwise distinct. One pass over the step, against the N-sized mark
// scratch (epoch-stamped, so it is never cleared).
func (b *ClassScheduleBuilder) isPermutation(st *classStep) bool {
	cs := b.cs
	n := cs.N
	if len(b.mark) < 2*n {
		b.mark, b.epoch = make([]int32, 2*n), 0
	}
	b.epoch++
	e := b.epoch
	for i := st.fbLo; i < st.fbHi; i++ {
		src, dst := int(cs.fbSrc[i]), int(cs.fbDst[i])
		if src < 0 || src >= n || dst < 0 || dst >= n || b.mark[src] == e || b.mark[n+dst] == e {
			return false
		}
		b.mark[src], b.mark[n+dst] = e, e
	}
	return true
}

// detectOrbit returns the smallest proper orbit size o (and the block node
// stride p) such that staged transfers [lo, hi) are the first o replicated
// block-major at stride p, or (0, 0) when no proper orbit exists.
func (b *ClassScheduleBuilder) detectOrbit(lo, hi int) (int, int) {
	cs := b.cs
	t := hi - lo
	if t < 2 {
		return 0, 0
	}
	n := cs.N
outer:
	for o := 1; o <= t/2; o++ {
		if t%o != 0 {
			continue
		}
		blocks := t / o
		p := ((int(cs.fbSrc[lo+o])-int(cs.fbSrc[lo]))%n + n) % n
		if p < 1 || p*blocks > n {
			continue
		}
		for j := o; j < t; j++ {
			a, b := lo+j, lo+j-o
			if int(cs.fbSrc[a]) != (int(cs.fbSrc[b])+p)%n || int(cs.fbDst[a]) != (int(cs.fbDst[b])+p)%n {
				continue outer
			}
			if cs.fbDir[a] != cs.fbDir[b] || cs.fbRouted[a] != cs.fbRouted[b] ||
				cs.fbWidth[a] != cs.fbWidth[b] || cs.fbOp[a] != cs.fbOp[b] {
				continue outer
			}
		}
		return o, p
	}
	return 0, 0
}

// verifySym checks the certificate's structural conditions and sets the
// disjoint/perm flags. It returns false when the orbit's replicas cannot be
// proven link-disjoint across blocks.
func (b *ClassScheduleBuilder) verifySym(st *classStep, o int) bool {
	cs := b.cs
	n, p, blocks := cs.N, int(st.period), int(st.blocks)
	if p < 1 || blocks < 2 || p*blocks > n {
		return false
	}
	if st.mode == lenRotated && (o != 1 || len(cs.lenRing) != o*blocks) {
		return false
	}
	b.ivCW, b.ivCCW = b.ivCW[:0], b.ivCCW[:0]
	for i := int(st.orbLo); i < int(st.orbHi); i++ {
		src, dst := int(cs.orbSrc[i]), int(cs.orbDst[i])
		if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
			return false
		}
		dir, h := effArc(n, src, dst, cs.orbDir[i], cs.orbRouted[i])
		// CW arcs cover CW link positions [src, src+h); CCW arcs cover CCW
		// link positions [dst+1, dst+1+h).
		if dir == ring.CW {
			b.ivCW = append(b.ivCW, interval{int32(src), int32(h)})
		} else {
			b.ivCCW = append(b.ivCCW, interval{int32((dst + 1) % n), int32(h)})
		}
	}
	okCW, djCW := windowCheck(b.ivCW, p, n)
	okCCW, djCCW := windowCheck(b.ivCCW, p, n)
	if !okCW || !okCCW {
		return false
	}
	st.disjoint = djCW && djCCW

	// Permutation: sources (and destinations) each fit a period window and
	// are pairwise distinct, so their block replicas never repeat a node.
	perm := true
	for _, col := range [2][]int32{cs.orbSrc[st.orbLo:st.orbHi], cs.orbDst[st.orbLo:st.orbHi]} {
		iv := b.ivCW[:0]
		for _, v := range col {
			iv = append(iv, interval{v, 1})
		}
		fit, dj := windowCheck(iv, p, n)
		b.ivCW = iv[:0]
		if !fit || !dj {
			perm = false
			break
		}
	}
	st.perm = perm
	return true
}

// windowCheck reports whether all circular intervals fit inside one window
// of length p (so their period-p replicas are pairwise disjoint) and, if so,
// whether the intervals themselves are pairwise disjoint. Intervals are on
// a circle of n positions; p*blocks <= n with blocks >= 2 implies p <= n/2,
// which makes the left/right-of-reference classification unambiguous.
func windowCheck(iv []interval, p, n int) (fits, disjoint bool) {
	if len(iv) == 0 {
		return true, true
	}
	r := iv[0].start
	lo, hi := 0, 0
	for k := range iv {
		h := int(iv[k].h)
		if h > p {
			return false, false
		}
		d := (int(iv[k].start-r)%n + n) % n
		switch {
		case d+h <= p:
			// right of (or at) the reference
		case d >= n-p:
			d -= n // left of the reference
		default:
			return false, false
		}
		if d < lo {
			lo = d
		}
		if d+h > hi {
			hi = d + h
		}
		iv[k].start = int32(d) // normalized offset for the disjointness sort
	}
	if hi-lo > p {
		return false, false
	}
	slices.SortFunc(iv, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	disjoint = true
	for k := 1; k < len(iv); k++ {
		if iv[k].start < iv[k-1].start+iv[k-1].h {
			disjoint = false
			break
		}
	}
	return true, disjoint
}

// demote materializes a symmetric step whose certificate failed, dropping
// its orbit/region data back into the fallback columns.
func (b *ClassScheduleBuilder) demote(st *classStep, o int) {
	cs := b.cs
	j := 0
	for blk := 0; blk < int(st.blocks); blk++ {
		shift := blk * int(st.period)
		for k := 0; k < o; k++ {
			i := int(st.orbLo) + k
			r := cs.region(st, j)
			cs.fbSrc = append(cs.fbSrc, int32(((int(cs.orbSrc[i])+shift)%cs.N+cs.N)%cs.N))
			cs.fbDst = append(cs.fbDst, int32(((int(cs.orbDst[i])+shift)%cs.N+cs.N)%cs.N))
			cs.fbLen = append(cs.fbLen, int32(r.Len))
			cs.fbOff = append(cs.fbOff, int32(r.Offset))
			cs.fbWidth = append(cs.fbWidth, cs.orbWidth[i])
			cs.fbDir = append(cs.fbDir, cs.orbDir[i])
			cs.fbRouted = append(cs.fbRouted, cs.orbRouted[i])
			cs.fbOp = append(cs.fbOp, cs.orbOp[i])
			st.fbHi++
			j++
		}
	}
	b.truncateOrbit(st)
	st.sym, st.disjoint = false, false
}

// truncateOrbit reclaims the open step's orbit and explicit regions (they
// are the column tails — only the open step writes).
func (b *ClassScheduleBuilder) truncateOrbit(st *classStep) {
	cs := b.cs
	cs.orbSrc = cs.orbSrc[:st.orbLo]
	cs.orbDst = cs.orbDst[:st.orbLo]
	cs.orbWidth = cs.orbWidth[:st.orbLo]
	cs.orbDir = cs.orbDir[:st.orbLo]
	cs.orbRouted = cs.orbRouted[:st.orbLo]
	cs.orbOp = cs.orbOp[:st.orbLo]
	st.orbHi = st.orbLo
	if st.mode == lenExplicit {
		cs.lens = cs.lens[:st.lenLo]
		cs.offs = cs.offs[:st.lenLo]
	}
}

// buildClasses computes the step's pricing classes.
func (b *ClassScheduleBuilder) buildClasses(st *classStep, o int) {
	cs := b.cs
	emit := func(k classKey, count int32) {
		if prev, ok := b.clsScratch[k]; ok {
			cs.clsCount[prev] += count
			return
		}
		b.clsScratch[k] = int32(len(cs.clsCount))
		b.clsOrder = append(b.clsOrder, k)
		cs.clsCount = append(cs.clsCount, count)
		cs.clsLen = append(cs.clsLen, k.ln)
		cs.clsHops = append(cs.clsHops, k.hops)
		cs.clsWidth = append(cs.clsWidth, k.width)
		st.clsHi++
	}
	switch st.mode {
	case lenUniform:
		for i := int(st.orbLo); i < int(st.orbHi); i++ {
			_, h := effArc(cs.N, int(cs.orbSrc[i]), int(cs.orbDst[i]), cs.orbDir[i], cs.orbRouted[i])
			emit(classKey{st.lenParam, int32(h), cs.orbWidth[i]}, st.blocks)
		}
	case lenRotated:
		_, h := effArc(cs.N, int(cs.orbSrc[st.orbLo]), int(cs.orbDst[st.orbLo]), cs.orbDir[st.orbLo], cs.orbRouted[st.orbLo])
		for _, rc := range b.ringClasses {
			emit(classKey{rc.Len, int32(h), cs.orbWidth[st.orbLo]}, rc.Count)
		}
	default: // lenExplicit
		j := int(st.lenLo)
		for blk := 0; blk < int(st.blocks); blk++ {
			for k := 0; k < o; k++ {
				i := int(st.orbLo) + k
				_, h := effArc(cs.N, int(cs.orbSrc[i]), int(cs.orbDst[i]), cs.orbDir[i], cs.orbRouted[i])
				emit(classKey{cs.lens[j], int32(h), cs.orbWidth[i]}, 1)
				j++
			}
		}
	}
	for _, k := range b.clsOrder {
		delete(b.clsScratch, k)
	}
	b.clsOrder = b.clsOrder[:0]
}

// Classes derives the symmetry-aware pricing fingerprint of the compact
// schedule by replaying it step by step through a ClassScheduleBuilder,
// which certifies each step as it closes. The result is self-contained — it
// copies what it needs and survives the compact schedule's Release.
func (c *CompactSchedule) Classes() *ClassSchedule {
	b := NewClassScheduleBuilder(c.Algorithm, c.N, c.Elems)
	b.Grow(c.NumSteps(), c.TotalTransfers())
	for si := 0; si < c.NumSteps(); si++ {
		b.StartStep(c.StepLabel(si))
		lo, hi := c.StepBounds(si)
		for j := lo; j < hi; j++ {
			b.Add(c.Transfer(j))
		}
	}
	return b.Finish()
}
