package collective

import (
	"fmt"
	"strconv"

	"wrht/internal/ring"
	"wrht/internal/tensor"
)

// RingAllReduce builds the bandwidth-optimal ring all-reduce of Patarasuk &
// Yuan: N-1 reduce-scatter steps followed by N-1 all-gather steps, each node
// exchanging 1/N of the buffer with its clockwise neighbor per step. This is
// the paper's E-Ring baseline (on the electrical substrate) and, restricted
// to a single wavelength, its O-Ring baseline.
func RingAllReduce(n, elems int) (*Schedule, error) {
	if err := ringArgs(n, elems); err != nil {
		return nil, err
	}
	s := &Schedule{Algorithm: "ring", N: n, Elems: elems}
	ringAllReduce(s, n, elems)
	return s, nil
}

// RingAllReduceCompact is RingAllReduce built directly in columnar form,
// skipping the boxed per-step slices entirely.
func RingAllReduceCompact(n, elems int) (*CompactSchedule, error) {
	if err := ringArgs(n, elems); err != nil {
		return nil, err
	}
	b := NewScheduleBuilder("ring", n, elems)
	ringAllReduce(b, n, elems)
	return b.Finish(), nil
}

func ringArgs(n, elems int) error {
	if n < 2 {
		return fmt.Errorf("collective: ring all-reduce needs n >= 2, got %d", n)
	}
	if elems < 0 {
		return fmt.Errorf("collective: negative elems %d", elems)
	}
	return nil
}

// ringLabel is the label of step t of a ring phase on n nodes,
// "<phase>t+1/n-1", built without fmt: the classed ring emits 2(N-1) of them.
func ringLabel(phase string, t, n int) string {
	return phase + strconv.Itoa(t+1) + "/" + strconv.Itoa(n-1)
}

func ringAllReduce(w StepWriter, n, elems int) {
	chunks := tensor.Chunks(elems, n)
	w.Grow(2*(n-1), 2*(n-1)*n)

	// Reduce-scatter: in step t, node i sends chunk (i-t) mod n to node i+1,
	// which accumulates it. After n-1 steps node i fully owns chunk (i+1) mod n.
	for t := 0; t < n-1; t++ {
		w.StartStep(ringLabel("reduce-scatter ", t, n))
		for i := 0; i < n; i++ {
			w.Add(Transfer{
				Src: i, Dst: (i + 1) % n,
				Region: chunks[((i-t)%n+n)%n],
				Op:     OpReduce,
				Routed: true, Dir: ring.CW,
			})
		}
	}

	// All-gather: in step t, node i sends chunk (i+1-t) mod n to node i+1,
	// which overwrites it.
	for t := 0; t < n-1; t++ {
		w.StartStep(ringLabel("all-gather ", t, n))
		for i := 0; i < n; i++ {
			w.Add(Transfer{
				Src: i, Dst: (i + 1) % n,
				Region: chunks[((i+1-t)%n+n)%n],
				Op:     OpCopy,
				Routed: true, Dir: ring.CW,
			})
		}
	}
}

// RingAllReduceClassed is RingAllReduce emitted directly in the
// symmetry-aware classed form, without materializing per-node transfers:
// every step is one orbit transfer (node 0 → node 1, CW) replicated N times
// at stride 1, with the chunk regions supplied as a rotation of the shared
// chunk ring. Build cost is O(N) for the whole schedule instead of O(N²);
// equality with RingAllReduce is enforced by property tests.
func RingAllReduceClassed(n, elems int) (*ClassSchedule, error) {
	if err := ringArgs(n, elems); err != nil {
		return nil, err
	}
	b := NewClassScheduleBuilder("ring", n, elems)
	b.Grow(2*(n-1), 0)
	b.SetLenRing(tensor.Chunks(elems, n))
	orbit := Transfer{Src: 0, Dst: 1, Op: OpReduce, Routed: true, Dir: ring.CW}

	// Reduce-scatter: transfer i of step t moves chunk (i-t) mod n, i.e. the
	// chunk ring rotated by -t.
	for t := 0; t < n-1; t++ {
		b.StartSymRotated(ringLabel("reduce-scatter ", t, n), 1, n, ((-t)%n+n)%n)
		b.AddOrbit(orbit)
	}

	// All-gather: transfer i of step t moves chunk (i+1-t) mod n.
	orbit.Op = OpCopy
	for t := 0; t < n-1; t++ {
		b.StartSymRotated(ringLabel("all-gather ", t, n), 1, n, ((1-t)%n+n)%n)
		b.AddOrbit(orbit)
	}
	return b.Finish(), nil
}

// AllToAllAllReduce builds the one-step (plus local reduction) all-reduce in
// which every node sends its full buffer to every other node. It is only
// practical for small n but is the primitive Wrht uses among the final
// representatives, and a useful correctness reference.
func AllToAllAllReduce(n, elems int) (*Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: all-to-all needs n >= 2, got %d", n)
	}
	s := &Schedule{Algorithm: "all-to-all", N: n, Elems: elems}
	st := Step{Label: "all-to-all exchange"}
	full := tensor.Region{Offset: 0, Len: elems}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			st.Transfers = append(st.Transfers, Transfer{
				Src: src, Dst: dst, Region: full, Op: OpReduce,
			})
		}
	}
	s.Steps = append(s.Steps, st)
	return s, nil
}
