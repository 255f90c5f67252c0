package core

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/ring"
	"wrht/internal/tensor"
	"wrht/internal/wdm"
)

// Schedule lowers the plan to the collective IR over a buffer of elems
// elements. Tree reduce levels move each member's full buffer to its
// representative (OpReduce); the all-to-all step exchanges full partials
// among representatives; broadcast levels mirror the reduce levels with
// OpCopy. The resulting schedule passes collective.VerifyAllReduce for every
// (N, w, m, policy) combination — tests enforce this.
func (p *Plan) Schedule(elems int) (*collective.Schedule, error) {
	if elems < 0 {
		return nil, fmt.Errorf("core: negative elems %d", elems)
	}
	s := &collective.Schedule{Algorithm: p.algorithm(), N: p.N, Elems: elems}
	p.write(s, elems)
	return s, nil
}

// CompactSchedule lowers the plan directly to the columnar IR — the form the
// message-level simulator consumes — from the same generator body as
// Schedule, so steps, labels and transfer order are identical.
func (p *Plan) CompactSchedule(elems int) (*collective.CompactSchedule, error) {
	if elems < 0 {
		return nil, fmt.Errorf("core: negative elems %d", elems)
	}
	b := collective.NewScheduleBuilder(p.algorithm(), p.N, elems)
	p.write(b, elems)
	return b.Finish(), nil
}

func (p *Plan) algorithm() string { return fmt.Sprintf("wrht(m=%d,%v)", p.M, p.Policy) }

// write emits the plan's steps: the reduce levels, the all-to-all among the
// final representatives, and the broadcast levels mirroring the reduce
// stage.
func (p *Plan) write(w collective.StepWriter, elems int) {
	full := tensor.Region{Offset: 0, Len: elems}
	transfers := 0
	if r := len(p.A2AReps); r > 1 {
		transfers = r * (r - 1)
	}
	for _, lvl := range p.ReduceLevels {
		for _, g := range lvl.Groups {
			transfers += 2 * (len(g.Members) - 1) // reduce + mirrored broadcast
		}
	}
	w.Grow(p.NumSteps(), transfers)
	add := w.Add
	for li, lvl := range p.ReduceLevels {
		w.StartStep(fmt.Sprintf("reduce level %d", li+1))
		for _, g := range lvl.Groups {
			emitGroup(add, g, full, p.TreeStripe, false)
		}
	}
	if p.A2AReps != nil {
		w.StartStep(fmt.Sprintf("all-to-all among %d reps", len(p.A2AReps)))
		p.emitA2A(add, full)
	}
	for li := len(p.ReduceLevels) - 1; li >= 0; li-- {
		w.StartStep(fmt.Sprintf("broadcast level %d", li+1))
		for _, g := range p.ReduceLevels[li].Groups {
			emitGroup(add, g, full, p.TreeStripe, true)
		}
	}
}

// ClassSchedule lowers the plan directly to the symmetry-aware classed IR,
// from the same generator body as Schedule. The builder certifies every
// level whose transfers form a verifiable rotational orbit — a uniform
// level, or a ragged one whose leftover group is a lone node — and keeps
// the rest materialized, so classed pricing of the result is bit-identical to
// pricing Schedule (tests enforce both).
func (p *Plan) ClassSchedule(elems int) (*collective.ClassSchedule, error) {
	if elems < 0 {
		return nil, fmt.Errorf("core: negative elems %d", elems)
	}
	b := collective.NewClassScheduleBuilder(p.algorithm(), p.N, elems)
	p.write(b, elems)
	return b.Finish(), nil
}

// emitGroup appends one group's member↔representative transfers (reduce
// direction, or its broadcast mirror) through add.
func emitGroup(add func(collective.Transfer), g ring.Group, full tensor.Region, stripe int, broadcast bool) {
	for _, mem := range g.Members {
		if mem == g.Rep {
			continue
		}
		tr := collective.Transfer{
			Src: mem, Dst: g.Rep,
			Region: full,
			Op:     collective.OpReduce,
			Routed: true,
			Dir:    dirToward(mem, g.Rep),
			Width:  stripe,
		}
		if broadcast {
			tr.Src, tr.Dst = g.Rep, mem
			tr.Op = collective.OpCopy
			tr.Dir = tr.Dir.Opposite()
		}
		add(tr)
	}
}

// emitA2A appends the all-to-all exchange of full partials among the final
// representatives through add.
func (p *Plan) emitA2A(add func(collective.Transfer), full tensor.Region) {
	for _, d := range p.a2aDemands() {
		add(collective.Transfer{
			Src: d.Arc.Src, Dst: d.Arc.Dst,
			Region: full,
			Op:     collective.OpReduce,
			Routed: true,
			Dir:    d.Arc.Dir,
			Width:  p.A2AStripe,
		})
	}
}

// a2aDemands routes the final all-to-all: load-balanced by default,
// wrap-avoiding when the plan was built with AvoidWrap.
func (p *Plan) a2aDemands() []wdm.Demand {
	if p.AvoidWrap {
		return wdm.AllToAllDemandsNoWrap(p.Topo, p.A2AReps, 1)
	}
	return wdm.AllToAllDemandsBalanced(p.Topo, p.A2AReps, 1)
}

// CheckInvariants verifies the structural properties the paper's analysis
// relies on. It is exercised heavily by tests and available to callers that
// construct unusual configurations:
//
//   - every node participates exactly once per level (as member or pass-through
//     representative of the previous level),
//   - each group is contiguous and ascending with its representative a member,
//   - per-step wavelength demand after striping fits the budget w,
//   - the step count matches the paper's 2⌈log_m N⌉ (or −1) bound for the
//     formula policy, and never exceeds it for the greedy policy.
func (p *Plan) CheckInvariants() error {
	// Level participant bookkeeping.
	expected := p.Topo.AllNodes()
	for li, lvl := range p.ReduceLevels {
		seen := make(map[int]bool, len(expected))
		var next []int
		for gi, g := range lvl.Groups {
			if len(g.Members) == 0 {
				return fmt.Errorf("core: level %d group %d empty", li, gi)
			}
			if len(g.Members) > p.M {
				return fmt.Errorf("core: level %d group %d has %d members (m=%d)",
					li, gi, len(g.Members), p.M)
			}
			if g.RepIndex() < 0 {
				return fmt.Errorf("core: level %d group %d rep %d not a member", li, gi, g.Rep)
			}
			prev := -1
			for _, mem := range g.Members {
				if mem <= prev {
					return fmt.Errorf("core: level %d group %d members not ascending", li, gi)
				}
				prev = mem
				if seen[mem] {
					return fmt.Errorf("core: level %d node %d in two groups", li, mem)
				}
				seen[mem] = true
			}
			next = append(next, g.Rep)
		}
		if len(seen) != len(expected) {
			return fmt.Errorf("core: level %d covers %d of %d participants",
				li, len(seen), len(expected))
		}
		for _, e := range expected {
			if !seen[e] {
				return fmt.Errorf("core: level %d missing participant %d", li, e)
			}
		}
		expected = next
	}
	if p.A2AReps != nil {
		if len(expected) != len(p.A2AReps) {
			return fmt.Errorf("core: all-to-all over %d reps, levels left %d",
				len(p.A2AReps), len(expected))
		}
		if wdm.LiangShenBound(len(p.A2AReps)) > p.W {
			return fmt.Errorf("core: all-to-all demand %d exceeds budget %d",
				wdm.LiangShenBound(len(p.A2AReps)), p.W)
		}
	} else if len(expected) != 1 || expected[0] != p.Root {
		return fmt.Errorf("core: root mismatch: levels end at %v, Root=%d", expected, p.Root)
	}

	for si, d := range p.WavelengthDemands() {
		if d > p.W {
			return fmt.Errorf("core: step %d demands %d wavelengths, budget %d", si, d, p.W)
		}
		if d < 1 {
			return fmt.Errorf("core: step %d demands %d wavelengths", si, d)
		}
	}

	bound := p.StepsUpperBound()
	switch p.Policy {
	case A2AFormula:
		if n := p.NumSteps(); n != bound && n != bound-1 {
			return fmt.Errorf("core: formula policy steps %d, want %d or %d", n, bound, bound-1)
		}
	case A2AGreedy:
		if n := p.NumSteps(); n > bound {
			return fmt.Errorf("core: greedy policy steps %d exceed bound %d", n, bound)
		}
	}
	return nil
}
