package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"wrht"
	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/energy"
	"wrht/internal/model"
	"wrht/internal/multiring"
	"wrht/internal/opticalsim"
)

// event-level: seeded optical points below 512 nodes, each priced by
// EventLevelTime in barrier and async mode, EnergyEstimate and
// MultiRackTime: the public paths that run the message-level simulator
// (opticalsim), energy accounting and the multi-ring hierarchy.
//
// Points come in blocks of a fixed design; the point is the workload's
// operation, and a run measures whole blocks. Pricing cost grows about as N^2 (and with W for the striped
// ring and the pipelined tree), so free draws over [16, 512) would let a
// few large points decide a run. Instead each algorithm gets anchors
// log-spaced over [16, 512), jittered by the seed within a few percent;
// the W-sensitive algorithms price every anchor at every wavelength budget
// and the others draw W from the seed. Anchor counts weight the algorithms
// against their cost so that no algorithm takes most of the time, and
// every block, on every seed, prices a comparable mix.

var eventMix = []struct {
	alg     wrht.Algorithm
	anchors int
	// allBudgets prices each anchor at every budget in eventBudgets.
	allBudgets bool
}{
	{wrht.AlgWrht, 16, false},
	{wrht.AlgWrhtUnstriped, 16, false},
	{wrht.AlgWrhtPipelined, 2, true},
	{wrht.AlgORing, 6, false},
	{wrht.AlgORingStriped, 2, true},
}

var eventBudgets = []int{8, 16, 32, 64}

// eventJitter is the anchor jitter, as a share of the anchor's stratum.
const eventJitter = 0.05

type eventPoint struct {
	cfg   wrht.Config
	alg   wrht.Algorithm
	bytes int64
	racks int
}

func (p eventPoint) nodesPerRack() int { return max(4, p.cfg.Nodes/p.racks) }

// eventDrawer yields the seed's sequence of blocks.
type eventDrawer struct{ rng *rand.Rand }

func newEventDrawer(seed uint64) *eventDrawer {
	return &eventDrawer{rng: rand.New(rand.NewPCG(seed, 0x5eed0007))}
}

func (d *eventDrawer) block() []eventPoint {
	rng := d.rng
	models := paperModels()
	var block []eventPoint
	for _, m := range eventMix {
		for j := 0; j < m.anchors; j++ {
			u := (float64(j) + 0.5 + eventJitter*(2*rng.Float64()-1)) / float64(m.anchors)
			n := nodesAt(u, 4, 9)
			budgets := eventBudgets
			if !m.allBudgets {
				budgets = []int{eventBudgets[rng.IntN(len(eventBudgets))]}
			}
			for _, w := range budgets {
				cfg := wrht.DefaultConfig(n)
				cfg.Optical.Wavelengths = w
				block = append(block, eventPoint{
					cfg: cfg, alg: m.alg,
					bytes: wrht.MustModel(models[rng.IntN(len(models))]).Bytes,
					racks: []int{2, 4, 8}[rng.IntN(3)],
				})
			}
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// eventResult is everything one point prices.
type eventResult struct {
	barrier, async wrht.Result
	energy         wrht.EnergyReport
	rack           wrht.MultiRackResult
}

func (r eventResult) finite() bool {
	for _, x := range []float64{r.barrier.Seconds, r.async.Seconds, r.energy.TotalJ, r.energy.Seconds, r.rack.TotalSec} {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return false
		}
	}
	return true
}

func pricePoint(p eventPoint) (eventResult, error) {
	var r eventResult
	var err error
	if r.barrier, err = wrht.EventLevelTime(p.cfg, p.alg, p.bytes, false); err != nil {
		return r, err
	}
	if r.async, err = wrht.EventLevelTime(p.cfg, p.alg, p.bytes, true); err != nil {
		return r, err
	}
	if r.energy, err = wrht.EnergyEstimate(p.cfg, p.alg, p.bytes); err != nil {
		return r, err
	}
	r.rack, err = wrht.MultiRackTime(p.cfg, p.racks, p.nodesPerRack(), p.bytes)
	return r, err
}

func (r eventResult) digestInto(d *digest) {
	d.float(r.barrier.Seconds)
	d.float(r.async.Seconds)
	d.float(r.energy.TotalJ)
	d.float(r.rack.TotalSec)
}

// eventWarmup is the set-up: draw the first block and price its cheap
// points (the two unpipelined Wrht variants), so code paths and the
// allocator are warm.
func eventWarmup(seed uint64) error {
	for _, p := range newEventDrawer(seed).block() {
		if p.alg != wrht.AlgWrht && p.alg != wrht.AlgWrhtUnstriped {
			continue
		}
		if _, err := pricePoint(p); err != nil {
			return err
		}
	}
	return nil
}

func runEventLevel(cfg runConfig) (*outcome, error) {
	o := &outcome{Named: map[string]float64{}}
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := eventWarmup(cfg.Seed); err != nil {
			return nil, err
		}
		o.Setup = append(o.Setup, time.Since(t0).Seconds())
	}
	if cfg.Trace {
		return traceEventLevel(cfg, o)
	}
	drawer := newEventDrawer(cfg.Seed)
	dg := newDigest()
	var pointMs []float64
	byAlg := map[wrht.Algorithm]float64{}
	busy := 0.0
	for blocks, end := 0, cfg.deadline(); blocks < 3 || time.Now().Before(end); blocks++ {
		for _, p := range drawer.block() {
			t0 := time.Now()
			r, err := pricePoint(p)
			dt := time.Since(t0).Seconds()
			byAlg[p.alg] += dt
			busy += dt
			pointMs = append(pointMs, dt*1e3)
			o.Attempted++
			if err != nil || !r.finite() {
				o.Failed++
				fmt.Printf("event-level: %s N=%d W=%d: %v %+v\n", p.alg, p.cfg.Nodes, p.cfg.Optical.Wavelengths, err, r)
			}
			if blocks == 0 {
				r.digestInto(dg)
			}
		}
	}
	o.Items = float64(len(pointMs)) / busy
	o.P50 = median(pointMs)
	o.Named["points_per_s"] = o.Items
	for alg, t := range byAlg {
		o.Named[string(alg)+".time_frac"] = t / busy
	}
	o.Digest = dg.hex()
	return o, nil
}

// eventTracedPoints is how many leading points (in whole blocks) the
// traced pass prices; the digest covers the first block.
const eventTracedPoints = 100

// mismatchTolerance is the relative difference above which barrier-mode
// EventLevelTime and CommunicationTime count as disagreeing; it only
// ignores floating-point summation order.
const mismatchTolerance = 1e-9

// traceEventLevel prices the seed's leading points with a span around each
// public call and shadow spans re-executing the layers those calls reach:
// the compact schedule build (collective) and the event simulator
// (opticalsim) inside EventLevelTime, energy accounting inside
// EnergyEstimate, and the multi-ring plan and pricing inside MultiRackTime.
// It also counts points where barrier-mode EventLevelTime differs from
// CommunicationTime.
func traceEventLevel(cfg runConfig, o *outcome) (*outcome, error) {
	drawer := newEventDrawer(cfg.Seed)
	points := drawer.block()
	digested := len(points)
	for len(points) < eventTracedPoints {
		points = append(points, drawer.block()...)
	}
	L := map[string]float64{}
	dg := newDigest()
	for i, p := range points {
		r, err := pricePoint(p)
		o.Attempted++
		if err != nil || !r.finite() {
			o.Failed++
			continue
		}
		if i < digested {
			r.digestInto(dg)
		}
		ct, err := wrht.CommunicationTime(p.cfg, p.alg, p.bytes)
		if err != nil {
			return nil, err
		}
		if math.Abs(ct.Seconds-r.barrier.Seconds) > mismatchTolerance*ct.Seconds {
			L["opticalsim.step_model_mismatch"]++
		}
	}
	o.Digest = dg.hex()

	var events int64
	pass := func(tr *Tracer) (int, float64, error) {
		t0 := time.Now()
		root := tr.Begin(0, "", "event-level.points")
		for _, p := range points {
			if err := tracePoint(tr, root, p, &events); err != nil {
				return 0, 0, err
			}
		}
		tr.End(root)
		return root, time.Since(t0).Seconds(), nil
	}
	_, untraced, err := pass(nil)
	if err != nil {
		return nil, err
	}
	events = 0
	tr := NewTracer()
	root, _, err := pass(tr)
	if err != nil {
		return nil, err
	}
	ledger := tr.Ledger(root)
	addLedger(L, ledger, untraced)
	if st := ledger.Layers["collective"]; st != nil {
		L["collective.compact_busy_s"] = st.Busy
	}
	L["opticalsim.events"] = float64(events)
	L["opticalsim.ns_per_event"] = frac(L["opticalsim.busy_s"]*1e9, float64(events))
	o.Layers, o.Ledger, o.Tracer = L, &ledger, tr
	return o, nil
}

// compactSchedule builds alg's columnar schedule, the form EventLevelTime
// simulates.
func compactSchedule(c wrht.Config, alg wrht.Algorithm, elems int) (*collective.CompactSchedule, error) {
	if alg == wrht.AlgORing || alg == wrht.AlgORingStriped {
		return collective.RingAllReduceCompact(c.Nodes, elems)
	}
	plan, err := core.BuildPlan(c.Nodes, c.Optical.Wavelengths, planOptions(c, alg))
	if err != nil {
		return nil, err
	}
	if alg != wrht.AlgWrhtPipelined {
		return plan.CompactSchedule(elems)
	}
	s, err := plan.PipelinedSchedule(elems, pipelineChunks)
	if err != nil {
		return nil, err
	}
	return s.Compact(), nil
}

func tracePoint(tr *Tracer, root int, p eventPoint, events *int64) error {
	elems := elemsOf(p.bytes)
	for _, async := range []bool{false, true} {
		id := tr.Begin(root, "wrht", "wrht.EventLevelTime")
		_, err := wrht.EventLevelTime(p.cfg, p.alg, p.bytes, async)
		tr.End(id)
		if err != nil {
			return err
		}
		if tr == nil {
			continue
		}
		c := tr.Shadow(id, "collective", "collective.CompactSchedule")
		cs, err := compactSchedule(p.cfg, p.alg, elems)
		tr.End(c)
		if err != nil {
			return err
		}
		opts := opticalsim.DefaultOptions()
		opts.Params = p.cfg.Optical
		if p.alg == wrht.AlgORingStriped {
			opts.DefaultWidth = p.cfg.Optical.Wavelengths
		}
		if async {
			opts.Mode = opticalsim.Async
		}
		s := tr.Shadow(id, "opticalsim", "opticalsim.RunCompact")
		r, err := opticalsim.RunCompact(cs, opts)
		tr.End(s)
		cs.Release()
		if err != nil {
			return err
		}
		*events += r.EventCount
	}

	id := tr.Begin(root, "wrht", "wrht.EnergyEstimate")
	er, err := wrht.EnergyEstimate(p.cfg, p.alg, p.bytes)
	tr.End(id)
	if err != nil {
		return err
	}
	if tr != nil {
		cls, err := classedSchedule(p.cfg, p.alg, elems)
		if err != nil {
			return err
		}
		e := tr.Shadow(id, "energy", "energy.Optical")
		_, err = energy.Optical(cls, er.Seconds, energy.DefaultOpticalCosts(), p.cfg.BytesPerElem)
		tr.End(e)
		cls.Release()
		if err != nil {
			return err
		}
	}

	id = tr.Begin(root, "wrht", "wrht.MultiRackTime")
	_, err = wrht.MultiRackTime(p.cfg, p.racks, p.nodesPerRack(), p.bytes)
	tr.End(id)
	if err != nil || tr == nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Cost = model.CostParamsOf(p.cfg.Optical)
	m := tr.Shadow(id, "multiring", "multiring.Plan.Time")
	plan, err := multiring.BuildPlan(p.racks, p.nodesPerRack(), p.cfg.Optical.Wavelengths, opts)
	if err == nil {
		_, err = plan.Time(elems, p.cfg.Optical, p.cfg.Electrical)
	}
	tr.End(m)
	return err
}

// classedSchedule builds alg's classed schedule the way the session-free
// CommunicationTime does.
func classedSchedule(c wrht.Config, alg wrht.Algorithm, elems int) (*collective.ClassSchedule, error) {
	r := newRedrive(nil, 0)
	var plan *core.Plan
	if isWrhtAlg(alg) {
		var err error
		if plan, err = core.BuildPlan(c.Nodes, c.Optical.Wavelengths, planOptions(c, alg)); err != nil {
			return nil, err
		}
	}
	return r.schedule(c, alg, elems, plan)
}
