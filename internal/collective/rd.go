package collective

import (
	"fmt"

	"wrht/internal/tensor"
)

// pow2Floor returns the largest power of two <= n (n >= 1).
func pow2Floor(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// CeilLog2 returns ⌈log2 n⌉ for n >= 1.
func CeilLog2(n int) int {
	l, p := 0, 1
	for p < n {
		p *= 2
		l++
	}
	return l
}

// generator writes one algorithm's steps for n nodes over elems elements.
type generator func(w StepWriter, n, elems int)

// boxed runs gen into a boxed schedule (the tensor-executable oracle form).
func boxed(algorithm, what string, n, elems int, gen generator) (*Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: %s needs n >= 2, got %d", what, n)
	}
	s := &Schedule{Algorithm: algorithm, N: n, Elems: elems}
	gen(s, n, elems)
	return s, nil
}

// classed runs gen straight into the classed form; the builder certifies
// each step as it closes.
func classed(algorithm, what string, n, elems int, gen generator) (*ClassSchedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: %s needs n >= 2, got %d", what, n)
	}
	b := NewClassScheduleBuilder(algorithm, n, elems)
	gen(b, n, elems)
	return b.Finish(), nil
}

// RecursiveDoubling builds the classic recursive-doubling all-reduce: log2(n)
// steps in which pairs at distance 1, 2, 4, ... exchange their full buffers
// and both reduce. This is the paper's RD baseline (electrical substrate).
//
// Non-power-of-two node counts use the standard MPICH preamble: the first
// 2*(n-pow2) nodes fold pairwise so a power-of-two core runs the exchange,
// and a final step copies the result back to the folded-out nodes.
func RecursiveDoubling(n, elems int) (*Schedule, error) {
	return boxed("recursive-doubling", "recursive doubling", n, elems, recursiveDoubling)
}

// RecursiveDoublingClassed is RecursiveDoubling emitted directly in the
// classed form.
func RecursiveDoublingClassed(n, elems int) (*ClassSchedule, error) {
	return classed("recursive-doubling", "recursive doubling", n, elems, recursiveDoubling)
}

func recursiveDoubling(w StepWriter, n, elems int) {
	full := tensor.Region{Offset: 0, Len: elems}
	core, rem := fold(n)
	pow2 := len(core)
	levels := CeilLog2(pow2)
	w.Grow(levels+2, levels*pow2+2*rem)
	foldIn(w, rem, full)
	for dist := 1; dist < pow2; dist *= 2 {
		w.StartStep(fmt.Sprintf("exchange dist %d", dist))
		for r := 0; r < pow2; r++ {
			// every ordered pair appears once; both directions in one step
			w.Add(Transfer{Src: core[r], Dst: core[r^dist], Region: full, Op: OpReduce})
		}
	}
	foldOut(w, rem, full)
}

// fold returns the power-of-two core of n nodes (core[i] is the physical
// node acting as core rank i) and the number rem of nodes folded into it:
// node 2i folds into node 2i+1 for i < rem.
func fold(n int) (core []int, rem int) {
	pow2 := pow2Floor(n)
	rem = n - pow2
	core = make([]int, 0, pow2)
	for i := 0; i < rem; i++ {
		core = append(core, 2*i+1)
	}
	for i := 2 * rem; i < n; i++ {
		core = append(core, i)
	}
	return core, rem
}

// foldIn writes the non-power-of-two preamble (when rem > 0): node 2i
// reduces its full buffer into node 2i+1.
func foldIn(w StepWriter, rem int, full tensor.Region) {
	if rem == 0 {
		return
	}
	w.StartStep("fold non-power-of-two")
	for i := 0; i < rem; i++ {
		w.Add(Transfer{Src: 2 * i, Dst: 2*i + 1, Region: full, Op: OpReduce})
	}
}

// foldOut writes the closing step that copies the result back to the
// folded-out nodes (when rem > 0).
func foldOut(w StepWriter, rem int, full tensor.Region) {
	if rem == 0 {
		return
	}
	w.StartStep("unfold")
	for i := 0; i < rem; i++ {
		w.Add(Transfer{Src: 2*i + 1, Dst: 2 * i, Region: full, Op: OpCopy})
	}
}

// HalvingDoubling builds Rabenseifner's all-reduce: a reduce-scatter by
// recursive vector halving followed by an all-gather by recursive doubling.
// It moves 2·(n-1)/n of the buffer per node (bandwidth-optimal) in
// 2·log2(n) steps, and serves as an additional electrical/optical baseline
// and ablation point. Non-power-of-two counts fold as in RecursiveDoubling.
func HalvingDoubling(n, elems int) (*Schedule, error) {
	return boxed("halving-doubling", "halving-doubling", n, elems, halvingDoubling)
}

// HalvingDoublingClassed is HalvingDoubling emitted directly in the classed
// form.
func HalvingDoublingClassed(n, elems int) (*ClassSchedule, error) {
	return classed("halving-doubling", "halving-doubling", n, elems, halvingDoubling)
}

func halvingDoubling(w StepWriter, n, elems int) {
	full := tensor.Region{Offset: 0, Len: elems}
	core, rem := fold(n)
	pow2 := len(core)
	levels := CeilLog2(pow2)
	w.Grow(2*levels+2, 2*levels*pow2+2*rem)
	foldIn(w, rem, full)

	// Reduce-scatter by halving. regions[r] is core rank r's current region;
	// history[l][r] records it before level l's split, for the gather phase.
	regions := make([]tensor.Region, pow2)
	for r := range regions {
		regions[r] = full
	}
	history := make([][]tensor.Region, levels)
	dist := pow2 / 2
	for l := 0; l < levels; l++ {
		history[l] = append([]tensor.Region(nil), regions...)
		w.StartStep(fmt.Sprintf("halving dist %d", dist))
		for r := 0; r < pow2; r++ {
			lo, hi := tensor.Halves(regions[r])
			keep, send := lo, hi
			if r&dist != 0 {
				keep, send = hi, lo
			}
			if send.Len > 0 {
				w.Add(Transfer{Src: core[r], Dst: core[r^dist], Region: send, Op: OpReduce})
			}
			regions[r] = keep
		}
		dist /= 2
	}

	// All-gather by doubling: undo levels in reverse order.
	dist = 1
	for l := levels - 1; l >= 0; l-- {
		w.StartStep(fmt.Sprintf("doubling dist %d", dist))
		for r := 0; r < pow2; r++ {
			if regions[r].Len > 0 {
				w.Add(Transfer{Src: core[r], Dst: core[r^dist], Region: regions[r], Op: OpCopy})
			}
		}
		copy(regions, history[l])
		dist *= 2
	}
	foldOut(w, rem, full)
}

// BinomialTree builds a reduce-to-root followed by a broadcast, both along a
// binomial tree: 2·⌈log2 n⌉ steps, each moving the full buffer. It is the
// electrical ancestor of Wrht's hierarchical tree (fan-in limited to 2) and
// is used in ablations.
func BinomialTree(n, elems int) (*Schedule, error) {
	return boxed("binomial-tree", "binomial tree", n, elems, binomialTree)
}

// BinomialTreeClassed is BinomialTree emitted directly in the classed form.
func BinomialTreeClassed(n, elems int) (*ClassSchedule, error) {
	return classed("binomial-tree", "binomial tree", n, elems, binomialTree)
}

func binomialTree(w StepWriter, n, elems int) {
	full := tensor.Region{Offset: 0, Len: elems}
	levels := CeilLog2(n)
	// Every node but the root sends once per stage.
	w.Grow(2*levels, 2*(n-1))

	// Reduce: at step l, nodes with r mod 2^(l+1) == 2^l send to r - 2^l.
	for l := 0; l < levels; l++ {
		bit := 1 << l
		w.StartStep(fmt.Sprintf("reduce level %d", l+1))
		for r := bit; r < n; r += 2 * bit {
			w.Add(Transfer{Src: r, Dst: r - bit, Region: full, Op: OpReduce})
		}
	}
	// Broadcast: mirror image.
	for l := levels - 1; l >= 0; l-- {
		bit := 1 << l
		w.StartStep(fmt.Sprintf("broadcast level %d", l+1))
		for r := bit; r < n; r += 2 * bit {
			w.Add(Transfer{Src: r - bit, Dst: r, Region: full, Op: OpCopy})
		}
	}
}
