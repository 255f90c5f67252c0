// Package opticalsim is the message-level discrete-event simulator of the
// WDM optical ring — the "optical interconnect simulator" the paper's
// evaluation runs on. Where internal/optical prices synchronous steps in
// closed form, this package simulates every transfer as an event: wavelength
// reservations on the fabric, per-transfer SerDes/E-O/O-E and propagation,
// and (optionally) receiver-side reduction compute.
//
// Two execution modes:
//
//   - Barrier: every step is a global barrier. When every step fits the
//     wavelength budget in one round, this matches the step-synchronous
//     cost model (runner.RunOptical) up to floating-point rounding. When a
//     step splits into sequential rounds, the cost model serializes the
//     rounds, while barrier mode starts each later-round transfer as soon
//     as its own wavelengths are free, so it is never slower.
//   - Async: a node starts its step-s transfers as soon as it — and the
//     peer — has finished their own step-(s-1) obligations; wavelengths are
//     granted greedily from the fabric's earliest-free time. Async removes
//     the global barrier skew, bounding how much a runtime implementation
//     could gain over the paper's synchronous analysis.
package opticalsim

import (
	"fmt"
	"sort"

	"wrht/internal/collective"
	"wrht/internal/optical"
	"wrht/internal/ring"
	"wrht/internal/sim"
	"wrht/internal/wdm"
)

// Mode selects barrier-synchronous or node-asynchronous execution.
type Mode int

const (
	// Barrier mode: all transfers of step s start together after step s-1
	// fully completes (the paper's model).
	Barrier Mode = iota
	// Async mode: node-local dependencies only.
	Async
)

func (m Mode) String() string {
	switch m {
	case Barrier:
		return "barrier"
	case Async:
		return "async"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a simulation run.
type Options struct {
	Params optical.Params
	Mode   Mode
	// Assigner picks the wavelength-assignment heuristic (per step).
	Assigner wdm.Policy
	// DefaultWidth applies to transfers without a stripe hint (1 = paper).
	DefaultWidth int
	// BytesPerElem converts schedule regions to bytes (0 = 4, FP32).
	BytesPerElem int
	// ReduceGBps, when positive, charges the receiver bytes/ReduceGBps of
	// reduction compute before its step obligation counts as met.
	ReduceGBps float64
}

// DefaultOptions mirrors runner.DefaultOpticalOptions.
func DefaultOptions() Options {
	return Options{
		Params:       optical.DefaultParams(),
		Mode:         Barrier,
		Assigner:     wdm.FirstFit,
		DefaultWidth: 1,
		BytesPerElem: 4,
	}
}

// TransferEvent is one simulated transmission.
type TransferEvent struct {
	Step     int
	Src, Dst int
	Arc      ring.Arc
	Bytes    int64
	// Wavelengths is the transfer's stripe; transfers of steps with equal
	// demand sets share it, so treat it as read-only.
	Wavelengths []int
	Start, End  float64
}

// Result is the outcome of a simulation.
type Result struct {
	Mode     Mode
	TotalSec float64
	Events   []TransferEvent
	// EventCount is the number of engine events executed (diagnostics).
	EventCount int64
}

// lowered is the columnar scheduling state of every non-empty schedule
// transfer: flat struct-of-arrays columns plus per-step index bounds, so
// neither execution mode materializes per-step boxed transfer slices.
type lowered struct {
	numSteps int
	stepOff  []int32 // len numSteps+1; step s covers [stepOff[s], stepOff[s+1])
	step     []int32
	arc      []ring.Arc
	bytes    []int64
	// stripe is assigned per step before any transfer of the step runs.
	stripe [][]int
}

// Run simulates the schedule and returns the transfer timeline.
func Run(s *collective.Schedule, opts Options) (Result, error) {
	cs := s.Compact()
	defer cs.Release()
	return RunCompact(cs, opts)
}

// RunCompact is Run on the columnar schedule representation (the fast path:
// no per-transfer boxing anywhere between the schedule and the event slab).
func RunCompact(cs *collective.CompactSchedule, opts Options) (Result, error) {
	if err := cs.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.Params.Validate(); err != nil {
		return Result{}, err
	}
	if opts.BytesPerElem == 0 {
		opts.BytesPerElem = 4
	}
	if opts.BytesPerElem < 1 || opts.DefaultWidth < 0 || opts.ReduceGBps < 0 {
		return Result{}, fmt.Errorf("opticalsim: invalid options %+v", opts)
	}
	if opts.DefaultWidth == 0 {
		opts.DefaultWidth = 1
	}
	topo, err := ring.New(cs.N)
	if err != nil {
		return Result{}, err
	}
	fabric, err := optical.NewFabric(topo, opts.Params)
	if err != nil {
		return Result{}, err
	}

	// Lower schedule transfers and assign wavelengths per step (the same
	// per-step conflict structure both modes use; Async only relaxes time).
	numSteps := cs.NumSteps()
	low := &lowered{
		numSteps: numSteps,
		stepOff:  make([]int32, 1, numSteps+1),
	}
	total := cs.TotalTransfers()
	low.step = make([]int32, 0, total)
	low.arc = make([]ring.Arc, 0, total)
	low.bytes = make([]int64, 0, total)
	low.stripe = make([][]int, 0, total)
	// Steps with equal active demand sets (every ring step, every chunk
	// round of a pipelined schedule) share one coloring and its stripes.
	ws, colorings := wdm.NewWorkspace(topo), wdm.NewColoringCache()
	var demands []wdm.Demand
	for si := 0; si < numSteps; si++ {
		lo, hi := cs.StepBounds(si)
		stepStart := len(low.step)
		demands = demands[:0]
		for i := lo; i < hi; i++ {
			tr := cs.Transfer(i)
			bytes := int64(tr.Region.Len) * int64(opts.BytesPerElem)
			if bytes == 0 {
				continue
			}
			arc := topo.Route(tr.Src, tr.Dst, tr.Dir, tr.Routed)
			width := tr.Width
			if width < 1 {
				width = opts.DefaultWidth
			}
			if width > opts.Params.Wavelengths {
				width = opts.Params.Wavelengths
			}
			low.step = append(low.step, int32(si))
			low.arc = append(low.arc, arc)
			low.bytes = append(low.bytes, bytes)
			low.stripe = append(low.stripe, nil)
			demands = append(demands, wdm.Demand{Arc: arc, Width: width})
		}
		if len(demands) > 0 {
			rounds, err := colorings.Rounds(ws, demands, opts.Params.Wavelengths, opts.Assigner)
			if err != nil {
				return Result{}, fmt.Errorf("opticalsim: step %d: %w", si, err)
			}
			for _, rd := range rounds {
				for i, di := range rd.Demands {
					low.stripe[stepStart+di] = rd.Assignment.Stripes[i]
				}
			}
		}
		low.stepOff = append(low.stepOff, int32(len(low.step)))
	}

	switch opts.Mode {
	case Barrier:
		return runBarrier(topo, fabric, opts, low)
	case Async:
		return runAsync(topo, fabric, opts, cs.N, low)
	default:
		return Result{}, fmt.Errorf("opticalsim: unknown mode %v", opts.Mode)
	}
}

// runBarrier reproduces the step-synchronous model with explicit
// reservations: each step starts when the previous ends, pays the step
// overhead, and transfers within it start together (per conflict round).
func runBarrier(topo ring.Topology, fabric *optical.Fabric, opts Options, low *lowered) (Result, error) {
	p := opts.Params
	res := Result{Mode: Barrier, Events: make([]TransferEvent, 0, len(low.step))}
	now := 0.0
	for si := 0; si < low.numSteps; si++ {
		now += p.StepOverheadSec()
		lo, hi := low.stepOff[si], low.stepOff[si+1]
		if lo == hi {
			continue
		}
		stepEnd := now
		for ti := lo; ti < hi; ti++ {
			arc, stripe := low.arc[ti], low.stripe[ti]
			start, err := fabric.EarliestFree(arc, stripe, now)
			if err != nil {
				return Result{}, err
			}
			d := p.TransferSec(low.bytes[ti], len(stripe), topo.Hops(arc))
			if err := fabric.Reserve(arc, stripe, start, d); err != nil {
				return Result{}, err
			}
			end := start + d
			if end > stepEnd {
				stepEnd = end
			}
			res.Events = append(res.Events, TransferEvent{
				Step: si, Src: arc.Src, Dst: arc.Dst, Arc: arc,
				Bytes: low.bytes[ti], Wavelengths: stripe, Start: start, End: end,
			})
		}
		now = stepEnd
	}
	res.TotalSec = now
	return res, nil
}

// runAsync runs the node-local dependency model on the event engine. All
// scheduling state is integer-indexed (CSR incident lists, a flat obligation
// table, one registered completion handler), so the event loop performs no
// per-event allocation.
func runAsync(topo ring.Topology, fabric *optical.Fabric, opts Options, n int, low *lowered) (Result, error) {
	p := opts.Params
	numSteps := low.numSteps
	total := len(low.step)
	// obligations[node*numSteps+step] = number of transfer endpoints the node
	// owns at that step.
	obligations := make([]int32, n*numSteps)
	for ti := 0; ti < total; ti++ {
		si := int(low.step[ti])
		obligations[low.arc[ti].Src*numSteps+si]++
		obligations[low.arc[ti].Dst*numSteps+si]++
	}
	// incident lists the transfers touching (node, step), in CSR form:
	// incIdx[incOff[node*numSteps+step]:incOff[node*numSteps+step+1]].
	incOff := make([]int32, n*numSteps+1)
	for ti := 0; ti < total; ti++ {
		si := int(low.step[ti])
		incOff[low.arc[ti].Src*numSteps+si+1]++
		incOff[low.arc[ti].Dst*numSteps+si+1]++
	}
	for i := 1; i < len(incOff); i++ {
		incOff[i] += incOff[i-1]
	}
	incIdx := make([]int32, 2*total)
	fill := make([]int32, n*numSteps)
	for ti := 0; ti < total; ti++ {
		si := int(low.step[ti])
		for _, node := range [2]int{low.arc[ti].Src, low.arc[ti].Dst} {
			slot := node*numSteps + si
			incIdx[incOff[slot]+fill[slot]] = int32(ti)
			fill[slot]++
		}
	}
	// nodeStep[i] = first step with unmet obligations; the node is ready
	// for every transfer at that step. While a step-s transfer is pending,
	// obligations[s] > 0 pins nodeStep at s, so eligibility is simply
	// nodeStep[src] >= step && nodeStep[dst] >= step.
	nodeStep := make([]int, n)
	advance := func(i int) bool {
		moved := false
		for nodeStep[i] < numSteps && obligations[i*numSteps+nodeStep[i]] == 0 {
			nodeStep[i]++
			moved = true
		}
		return moved
	}

	var eng sim.Engine
	eng.Grow(total)
	res := Result{Mode: Async, Events: make([]TransferEvent, 0, total)}
	launched := make([]bool, total)

	var launch func(ti int32)
	var completeH sim.HandlerID
	launchReady := func(i int) {
		if nodeStep[i] >= numSteps {
			return
		}
		slot := i*numSteps + nodeStep[i]
		for _, ti := range incIdx[incOff[slot]:incOff[slot+1]] {
			if launched[ti] || nodeStep[low.arc[ti].Src] < int(low.step[ti]) ||
				nodeStep[low.arc[ti].Dst] < int(low.step[ti]) {
				continue
			}
			launch(ti)
		}
	}
	completeH = eng.Register(func(ti int32) {
		arc, si := low.arc[ti], int(low.step[ti])
		obligations[arc.Src*numSteps+si]--
		obligations[arc.Dst*numSteps+si]--
		if advance(arc.Src) {
			launchReady(arc.Src)
		}
		if advance(arc.Dst) {
			launchReady(arc.Dst)
		}
	})
	launch = func(ti int32) {
		launched[ti] = true
		arc, stripe := low.arc[ti], low.stripe[ti]
		// Tuning is charged per transmission in async mode (each transfer
		// re-tunes its micro-rings); there is no global step to charge.
		eligible := eng.Now() + p.TuningNs*1e-9
		start, err := fabric.EarliestFree(arc, stripe, eligible)
		if err != nil {
			panic(err) // wavelengths validated at assignment time
		}
		d := p.TransferSec(low.bytes[ti], len(stripe), topo.Hops(arc))
		if err := fabric.Reserve(arc, stripe, start, d); err != nil {
			panic(err)
		}
		end := start + d
		if opts.ReduceGBps > 0 {
			end += float64(low.bytes[ti]) / (opts.ReduceGBps * 1e9)
		}
		res.Events = append(res.Events, TransferEvent{
			Step: int(low.step[ti]), Src: arc.Src, Dst: arc.Dst, Arc: arc,
			Bytes: low.bytes[ti], Wavelengths: stripe, Start: start, End: end,
		})
		eng.Schedule(end, completeH, ti)
	}

	for i := 0; i < n; i++ {
		advance(i)
	}
	for i := 0; i < n; i++ {
		launchReady(i)
	}
	res.TotalSec = eng.Run()
	res.EventCount = eng.Steps()

	// Every transfer must have run; a stall would mean a dependency cycle,
	// which the step-ordered schedule structure makes impossible.
	if len(res.Events) != total {
		return Result{}, fmt.Errorf("opticalsim: deadlock — %d of %d transfers ran",
			len(res.Events), total)
	}
	return res, nil
}

// ValidateTimeline checks that no two events overlap in time on the same
// (directed link, wavelength) — the physical-realizability certificate.
func ValidateTimeline(topo ring.Topology, events []TransferEvent) error {
	type key struct{ link, lambda int }
	type span struct{ start, end float64 }
	occ := make(map[key][]span)
	for _, ev := range events {
		var links []int
		topo.VisitLinks(ev.Arc, func(l int) { links = append(links, l) })
		for _, c := range ev.Wavelengths {
			for _, l := range links {
				occ[key{l, c}] = append(occ[key{l, c}], span{ev.Start, ev.End})
			}
		}
	}
	for k, spans := range occ {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end-1e-12 {
				return fmt.Errorf("opticalsim: link %d wavelength %d double-booked: [%g,%g) vs [%g,%g)",
					k.link, k.lambda, spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
			}
		}
	}
	return nil
}
