package main

import (
	"math"
	"time"

	"wrht"
	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/optical"
	"wrht/internal/ring"
	"wrht/internal/runner"
	"wrht/internal/wdm"
)

// The traced design-sweep run re-drives one study's cells through the
// pricing layers' public functions, sequentially, memoizing plans,
// schedules and simulations per distinct key the way the sweep session
// does: core.BuildPlan, the collective schedule constructors, and
// runner.RunOpticalClassed/RunElectricalClassed. optical, wdm and
// electrical are reachable only inside runner, so after each runner call
// the traced pass re-executes them as shadow spans on the inputs runner
// handed them.

type planKey struct {
	n, w     int
	striping bool
}

type schedKey struct {
	name     string
	n, elems int
	sig      core.PlanSig
	chunks   int
}

type simKey struct {
	sched      schedKey
	electrical bool
	w, width   int
}

// sweepCounters are the layer work counts of one traced pass.
type sweepCounters struct {
	plansBuilt                     int64
	steps, certified, materialized int
	demoted                        int
	transfers, symTried, symOK     int
	demands                        int
}

type redrive struct {
	tr     *Tracer
	root   int
	plans  map[planKey]*core.Plan
	scheds map[schedKey]*collective.ClassSchedule
	sims   map[simKey]bool
	c      sweepCounters
}

func newRedrive(tr *Tracer, root int) *redrive {
	return &redrive{
		tr: tr, root: root,
		plans:  map[planKey]*core.Plan{},
		scheds: map[schedKey]*collective.ClassSchedule{},
		sims:   map[simKey]bool{},
	}
}

// spec re-drives every cell of a sweep spec in grid order.
func (r *redrive) spec(sp wrht.SweepSpec) error {
	for _, n := range sp.Nodes {
		for _, w := range sp.Wavelengths {
			for _, m := range sp.Models {
				for _, alg := range sp.Algorithms {
					if err := r.cell(cellConfig(n, w), alg, elemsOf(wrht.MustModel(m).Bytes)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func (r *redrive) cell(cfg wrht.Config, alg wrht.Algorithm, elems int) error {
	tr := r.tr
	var plan *core.Plan
	sk := schedKey{n: cfg.Nodes, elems: elems}
	if isWrhtAlg(alg) {
		pk := planKey{cfg.Nodes, cfg.Optical.Wavelengths, alg == wrht.AlgWrht}
		if plan = r.plans[pk]; plan == nil {
			before := core.PlanBuildCount()
			id := tr.Begin(r.root, "core", "core.BuildPlan")
			p, err := core.BuildPlan(cfg.Nodes, cfg.Optical.Wavelengths, planOptions(cfg, alg))
			tr.End(id)
			if err != nil {
				return err
			}
			r.c.plansBuilt += core.PlanBuildCount() - before
			plan, r.plans[pk] = p, p
		}
		sk.sig = plan.Sig()
		if alg == wrht.AlgWrhtPipelined {
			sk.chunks = pipelineChunks
		}
	} else {
		sk.name = ringName(alg)
	}
	cls := r.scheds[sk]
	if cls == nil {
		var err error
		if cls, err = r.schedule(cfg, alg, elems, plan); err != nil {
			return err
		}
		r.scheds[sk] = cls
	}
	simk := simKey{sched: sk, electrical: isElectricalAlg(alg)}
	if !simk.electrical {
		opts := opticalOptions(cfg, alg)
		simk.w, simk.width = cfg.Optical.Wavelengths, opts.DefaultWidth
	}
	if r.sims[simk] {
		return nil
	}
	r.sims[simk] = true
	if simk.electrical {
		return r.priceElectrical(cls, electricalOptions(cfg))
	}
	return r.priceOptical(cls, opticalOptions(cfg, alg))
}

// ringName is the schedule identity algorithms share (E-Ring and both
// O-Rings ride one ring schedule).
func ringName(alg wrht.Algorithm) string {
	switch alg {
	case wrht.AlgERing, wrht.AlgORing, wrht.AlgORingStriped:
		return "ring"
	}
	return string(alg)
}

// schedule builds alg's classed schedule, the form the sweep prices.
func (r *redrive) schedule(cfg wrht.Config, alg wrht.Algorithm, elems int, plan *core.Plan) (*collective.ClassSchedule, error) {
	var name string
	var build func() (*collective.ClassSchedule, error)
	classesOf := func(s *collective.Schedule, err error) (*collective.ClassSchedule, error) {
		if err != nil {
			return nil, err
		}
		cs := s.Compact()
		defer cs.Release()
		return cs.Classes(), nil
	}
	n := cfg.Nodes
	switch alg {
	case wrht.AlgERing, wrht.AlgORing, wrht.AlgORingStriped:
		name, build = "collective.RingAllReduceClassed", func() (*collective.ClassSchedule, error) { return collective.RingAllReduceClassed(n, elems) }
	case wrht.AlgRD:
		name, build = "collective.RecursiveDoubling", func() (*collective.ClassSchedule, error) { return classesOf(collective.RecursiveDoubling(n, elems)) }
	case wrht.AlgHD:
		name, build = "collective.HalvingDoubling", func() (*collective.ClassSchedule, error) { return classesOf(collective.HalvingDoubling(n, elems)) }
	case wrht.AlgBinomial:
		name, build = "collective.BinomialTree", func() (*collective.ClassSchedule, error) { return classesOf(collective.BinomialTree(n, elems)) }
	case wrht.AlgWrhtPipelined:
		name, build = "core.Plan.PipelinedSchedule", func() (*collective.ClassSchedule, error) {
			return classesOf(plan.PipelinedSchedule(elems, pipelineChunks))
		}
	default:
		name, build = "core.Plan.ClassSchedule", func() (*collective.ClassSchedule, error) { return plan.ClassSchedule(elems) }
	}
	id := r.tr.Begin(r.root, "collective", name)
	cls, err := build()
	r.tr.End(id)
	if err != nil {
		return nil, err
	}
	cert, mat, dem := cls.CertStats()
	r.c.steps += cls.NumSteps()
	r.c.certified += cert
	r.c.materialized += mat
	r.c.demoted += dem
	return cls, nil
}

// shadowBatch bounds how many steps (and transfers) one shadow span
// re-executes, so prepared inputs stay small at 16k nodes.
const (
	shadowBatchSteps     = 4096
	shadowBatchTransfers = 1 << 20
)

// opticalStep is the input runner hands optical for one step.
type opticalStep struct {
	sym, disjoint bool
	classes       []optical.ClassSpec
	orbit         []wdm.Demand
	specs         []optical.TransferSpec
	// Filled while pricing: how the step was priced, for the wdm shadow.
	priced  bool
	demands []wdm.Demand
}

func (r *redrive) priceOptical(cls *collective.ClassSchedule, opts runner.OpticalOptions) error {
	tr := r.tr
	id := tr.Begin(r.root, "runner", "runner.RunOpticalClassed")
	_, err := runner.RunOpticalClassed(cls, opts)
	tr.End(id)
	if err != nil || tr == nil {
		return err
	}
	if opts.DefaultWidth == 0 {
		opts.DefaultWidth = 1
	}
	topo, err := ring.New(cls.N)
	if err != nil {
		return err
	}
	pricer, err := optical.NewStepPricer(topo, opts.Params, opts.Assigner)
	if err != nil {
		return err
	}
	ws, sa := wdm.NewWorkspace(topo), wdm.NewSymmetricAssigner(topo)
	w := opts.Params.Wavelengths
	for lo := 0; lo < cls.NumSteps(); {
		batch, hi := prepOptical(cls, topo, opts, lo)
		o := tr.Shadow(id, "optical", "optical.StepPricer")
		for i := range batch {
			st := &batch[i]
			if st.sym {
				r.c.symTried++
				if _, ok, err := pricer.PriceSymmetric(st.orbit, st.classes, st.disjoint); err != nil {
					return err
				} else if ok {
					r.c.symOK++
					st.priced = true
					continue
				}
				if st.specs == nil {
					st.specs = materialize(cls, topo, opts, lo+i)
				}
			}
			r.c.transfers += len(st.specs)
			if _, err := pricer.Price(st.specs); err != nil {
				return err
			}
		}
		tr.End(o)
		for i := range batch {
			batch[i].demands = wdmInput(&batch[i], w)
		}
		wd := tr.Shadow(o, "wdm", "wdm.Assign")
		for i := range batch {
			st := &batch[i]
			if len(st.demands) == 0 {
				continue
			}
			r.c.demands += len(st.demands)
			if st.priced {
				if _, _, err := sa.SingleRoundColors(st.demands, w); err != nil {
					return err
				}
			} else if _, err := ws.RoundsReused(st.demands, w, opts.Assigner, wdm.AsGiven); err != nil {
				return err
			}
		}
		tr.End(wd)
		lo = hi
	}
	return nil
}

// prepOptical builds the per-step optical inputs of steps [lo, hi), the
// way runner.RunOpticalClassed builds them.
func prepOptical(cls *collective.ClassSchedule, topo ring.Topology, opts runner.OpticalOptions, lo int) ([]opticalStep, int) {
	var batch []opticalStep
	size, si := 0, lo
	for ; si < cls.NumSteps() && len(batch) < shadowBatchSteps && size < shadowBatchTransfers; si++ {
		var st opticalStep
		if _, _, disjoint, _, sym := cls.Sym(si); sym && opts.Assigner == wdm.FirstFit {
			st.sym, st.disjoint = true, disjoint
			holes := false
			clo, chi := cls.ClassBounds(si)
			for i := clo; i < chi; i++ {
				c := cls.Class(i)
				width := int(c.Width)
				if width == 0 {
					width = opts.DefaultWidth
				}
				bytes := int64(c.Len) * int64(opts.BytesPerElem)
				holes = holes || bytes == 0
				st.classes = append(st.classes, optical.ClassSpec{Bytes: bytes, Width: width, Hops: int(c.Hops), Count: int(c.Count)})
			}
			olo, ohi := cls.OrbitBounds(si)
			for i := olo; i < ohi; i++ {
				src, dst, width, dir, routed := cls.OrbitAt(i)
				arc := ring.Arc{Src: src, Dst: dst, Dir: dir}
				if !routed {
					arc = topo.ShortestArc(src, dst)
				}
				if width == 0 {
					width = opts.DefaultWidth
				}
				st.orbit = append(st.orbit, wdm.Demand{Arc: arc, Width: width})
			}
			if holes && !disjoint {
				st.specs = materialize(cls, topo, opts, si)
			}
		} else {
			st.specs = materialize(cls, topo, opts, si)
		}
		size += len(st.classes) + len(st.orbit) + len(st.specs)
		batch = append(batch, st)
	}
	return batch, si
}

func materialize(cls *collective.ClassSchedule, topo ring.Topology, opts runner.OpticalOptions, si int) []optical.TransferSpec {
	specs := []optical.TransferSpec{}
	cls.ForEachTransfer(si, func(t collective.Transfer) {
		arc := ring.Arc{Src: t.Src, Dst: t.Dst, Dir: t.Dir}
		if !t.Routed {
			arc = topo.ShortestArc(t.Src, t.Dst)
		}
		width := t.Width
		if width == 0 {
			width = opts.DefaultWidth
		}
		specs = append(specs, optical.TransferSpec{Arc: arc, Bytes: int64(t.Region.Len) * int64(opts.BytesPerElem), Width: width})
	})
	return specs
}

// wdmInput is the demand set the step pricer hands wdm for a step: the
// clamped orbit of a symmetric step that needed a coloring, or the clamped
// non-empty transfers of a materialized step.
func wdmInput(st *opticalStep, w int) []wdm.Demand {
	clamp := func(x int) int { return max(1, min(x, w)) }
	var out []wdm.Demand
	if st.priced {
		if st.disjoint {
			return nil
		}
		for _, c := range st.classes {
			if c.Bytes == 0 {
				return nil
			}
		}
		for _, d := range st.orbit {
			out = append(out, wdm.Demand{Arc: d.Arc, Width: clamp(d.Width)})
		}
		return out
	}
	for _, t := range st.specs {
		if t.Bytes > 0 {
			out = append(out, wdm.Demand{Arc: t.Arc, Width: clamp(t.Width)})
		}
	}
	return out
}

// electricalStep is the input runner hands electrical for one step.
type electricalStep struct {
	classed bool
	bits    []float64
	flows   []electrical.Flow
}

func (r *redrive) priceElectrical(cls *collective.ClassSchedule, opts runner.ElectricalOptions) error {
	tr := r.tr
	id := tr.Begin(r.root, "runner", "runner.RunElectricalClassed")
	_, err := runner.RunElectricalClassed(cls, opts)
	tr.End(id)
	if err != nil || tr == nil {
		return err
	}
	nw, err := electrical.NewSwitchedCluster(cls.N, opts.Params.LinkGbps)
	if err != nil {
		return err
	}
	solver := electrical.NewSolver(nw)
	classSolver, err := electrical.NewClassSolver(opts.Params.LinkGbps)
	if err != nil {
		return err
	}
	bitsOf := func(elems int) float64 { return float64(elems) * float64(opts.BytesPerElem) * 8 }
	for lo := 0; lo < cls.NumSteps(); {
		var batch []electricalStep
		size, si := 0, lo
		for ; si < cls.NumSteps() && len(batch) < shadowBatchSteps && size < shadowBatchTransfers; si++ {
			var st electricalStep
			if _, _, _, perm, sym := cls.Sym(si); sym && perm {
				st.classed = true
				clo, chi := cls.ClassBounds(si)
				for i := clo; i < chi; i++ {
					if c := cls.Class(i); c.Len != 0 {
						st.bits = append(st.bits, bitsOf(int(c.Len)))
					}
				}
			} else {
				cls.ForEachTransfer(si, func(t collective.Transfer) {
					st.flows = append(st.flows, electrical.Flow{Src: t.Src, Dst: t.Dst, Bits: bitsOf(t.Region.Len)})
				})
			}
			size += len(st.bits) + len(st.flows)
			batch = append(batch, st)
		}
		e := tr.Shadow(id, "electrical", "electrical.StepCost")
		for _, st := range batch {
			var err error
			if st.classed {
				_, err = classSolver.StepCost(opts.Params, st.bits)
			} else {
				_, err = solver.StepCost(opts.Params, st.flows)
			}
			if err != nil {
				return err
			}
		}
		tr.End(e)
		lo = si
	}
	return nil
}

// traceDesignSweep prices the seed's first study once through the sweep
// (for the cache hit ratios and pricer disagreements), then re-drives it
// untraced and traced.
func traceDesignSweep(cfg runConfig, o *outcome) (*outcome, error) {
	st := newStudyDrawer(cfg.Seed).next()
	cells, res, err := runStudy(st)
	if err != nil {
		return nil, err
	}
	o.Attempted = len(cells)
	for _, c := range cells {
		if c.Err != nil {
			o.Failed++
		}
	}
	o.Digest = digestCells(cells)
	L := map[string]float64{}
	L["exp.plan_hit_frac"] = frac(float64(res.PlanHits), float64(res.PlanHits+res.PlanBuilds))
	L["exp.sched_hit_frac"] = frac(float64(res.SchedHits), float64(res.SchedHits+res.SchedBuilds))
	L["exp.sim_hit_frac"] = frac(float64(res.SimHits), float64(res.SimHits+res.SimRuns))
	for _, c := range cells {
		if c.Err == nil && disagrees(c.Comm.Seconds, c.Comm.PredictedSeconds) {
			L["model.disagree."+string(c.Algorithm)]++
		}
	}

	pass := func(tr *Tracer) (*redrive, int, float64, error) {
		t0 := time.Now()
		root := tr.Begin(0, "", "design-sweep.study")
		r := newRedrive(tr, root)
		for _, sp := range []wrht.SweepSpec{st.main, st.piped} {
			if err := r.spec(sp); err != nil {
				return nil, 0, 0, err
			}
		}
		tr.End(root)
		return r, root, time.Since(t0).Seconds(), nil
	}
	_, _, untraced, err := pass(nil)
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	r, root, _, err := pass(tr)
	if err != nil {
		return nil, err
	}
	ledger := tr.Ledger(root)
	addLedger(L, ledger, untraced)
	c := r.c
	L["core.plans_built"] = float64(c.plansBuilt)
	L["collective.steps"] = float64(c.steps)
	L["collective.certified_frac"] = frac(float64(c.certified), float64(c.certified+c.materialized))
	L["collective.demoted"] = float64(c.demoted)
	L["optical.transfers"] = float64(c.transfers)
	L["optical.symmetric_frac"] = frac(float64(c.symOK), float64(c.symTried))
	L["wdm.demands"] = float64(c.demands)
	o.Layers, o.Ledger, o.Tracer = L, &ledger, tr
	return o, nil
}

// disagrees reports a simulated time more than 1% off its closed form.
func disagrees(sim, predicted float64) bool {
	return math.Abs(sim-predicted) > 0.01*math.Abs(predicted)
}

// addLedger records a traced pass's time split: calls, busy and self time
// per layer, the shadow re-execution time, the unattributed residual, and
// the overhead against the same pass untraced.
func addLedger(L map[string]float64, l Ledger, untraced float64) {
	for name, st := range l.Layers {
		L[name+".calls"] = float64(st.Calls)
		L[name+".busy_s"] = st.Busy
		L[name+".self_s"] = st.Self
	}
	L["trace.wall_s"] = l.Wall
	L["trace.untraced_s"] = untraced
	L["trace.overhead_s"] = l.Wall - untraced
	L["trace.shadow_s"] = l.Shadow
	L["unattributed_s"] = l.Unattributed
}
