package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"time"

	"wrht"
	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/model"
	"wrht/internal/runner"
	"wrht/internal/wdm"
)

// design-sweep: cold design studies shaped like the paper's evaluation.
// Each study is a fresh SweepSession pricing 4 node counts x 2 wavelength
// budgets x the four paper models x the eight non-pipelined algorithms,
// plus a wrht-pipelined grid at one node count beside it.
//
// Node counts are drawn one per log-spaced stratum of [512, 16384] and
// every draw walks a seeded low-discrepancy sequence, so every run covers
// the whole range and runs on different seeds price comparable mixes.

// sweepAlgorithms are the eight non-pipelined algorithms.
func sweepAlgorithms() []wrht.Algorithm {
	var out []wrht.Algorithm
	for _, a := range wrht.Algorithms() {
		if a != wrht.AlgWrhtPipelined {
			out = append(out, a)
		}
	}
	return out
}

func paperModels() []string {
	var out []string
	for _, m := range wrht.Models() {
		out = append(out, m.Name)
	}
	return out
}

type study struct{ main, piped wrht.SweepSpec }

// weyl is a seeded low-discrepancy sequence on [0, 1): successive values
// step by an irrational amount from a random start, so any run of draws
// covers the interval evenly and runs on different seeds see comparable
// spreads of sizes.
type weyl struct{ u, step float64 }

func newWeyl(rng *rand.Rand, step float64) *weyl { return &weyl{u: rng.Float64(), step: step} }

func (w *weyl) next() float64 {
	v := w.u
	w.u = math.Mod(w.u+w.step, 1)
	return v
}

const (
	goldenStep = 0.6180339887498949 // frac of the golden ratio
	sqrt2Step  = 0.4142135623730951 // frac of sqrt 2
)

// nodesAt maps u in [0, 1) to round(2^(lo + u*(hi-lo))), moved off powers
// of two.
func nodesAt(u, lo, hi float64) int {
	n := int(math.Round(math.Exp2(lo + u*(hi-lo))))
	if bits.OnesCount(uint(n)) == 1 {
		n++
	}
	return n
}

// studyDrawer yields the seed's sequence of studies: one node count per
// log-spaced stratum of [512, 16384] (the lowest a power of two), two
// wavelength budgets, and the pipelined node count in [512, 2048], each
// node-count stratum walking its own Weyl sequence.
type studyDrawer struct {
	strata []*weyl
	// k counts studies; lo and hi offset the budget alternation.
	k, lo, hi int
}

func newStudyDrawer(seed uint64) *studyDrawer {
	rng := rand.New(rand.NewPCG(seed, 0x5eed0001))
	d := &studyDrawer{lo: rng.IntN(2), hi: rng.IntN(2)}
	for s := 0; s < 4; s++ {
		d.strata = append(d.strata, newWeyl(rng, goldenStep))
	}
	return d
}

func (d *studyDrawer) next() study {
	nodes := []int{512 << int(2*d.strata[0].next())}
	var u float64
	for s := 1; s < 4; s++ {
		lo := 9 + 1.25*float64(s)
		u = d.strata[s].next()
		nodes = append(nodes, min(nodesAt(u, lo, lo+1.25), 16383))
	}
	// Pricing slows with the budget, so every study pairs a small budget
	// with a large one, alternating from study to study.
	ws := []int{[]int{8, 16}[(d.k+d.lo)%2], []int{32, 64}[(d.k/2+d.hi)%2]}
	d.k++
	// The pipelined node count mirrors the top stratum's draw, so a study
	// with a large main grid gets a small pipelined one and study times
	// stay comparable.
	pipedN := min(nodesAt(1-u, 9, 11), 2047)
	procs := runtime.NumCPU()
	return study{
		main: wrht.SweepSpec{
			Nodes: nodes, Wavelengths: ws, Models: paperModels(),
			Algorithms: sweepAlgorithms(), Parallelism: procs,
		},
		piped: wrht.SweepSpec{
			Nodes: []int{pipedN}, Wavelengths: ws, Models: paperModels(),
			Algorithms: []wrht.Algorithm{wrht.AlgWrhtPipelined}, Parallelism: procs,
		},
	}
}

// runStudy prices one study on a fresh session.
func runStudy(st study) ([]wrht.SweepCell, *wrht.SweepResult, error) {
	sess := wrht.NewSweepSession()
	r1, err := sess.RunSweep(st.main)
	if err != nil {
		return nil, nil, err
	}
	r2, err := sess.RunSweep(st.piped)
	if err != nil {
		return nil, nil, err
	}
	cells := append(r1.Cells, r2.Cells...)
	// The second sweep reports the session's cumulative cache counters.
	return cells, r2, nil
}

// designWarmup is the set-up: draw the first study and price a small grid
// so code paths and the allocator are warm before the first study.
func designWarmup(seed uint64) error {
	newStudyDrawer(seed).next()
	_, err := wrht.RunSweep(wrht.SweepSpec{
		Nodes: []int{200, 700}, Wavelengths: []int{8, 32}, Models: paperModels(),
		Algorithms: wrht.Algorithms(), Parallelism: runtime.NumCPU(),
	})
	return err
}

func runDesignSweep(cfg runConfig) (*outcome, error) {
	o := &outcome{Named: map[string]float64{}}
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := designWarmup(cfg.Seed); err != nil {
			return nil, err
		}
		o.Setup = append(o.Setup, time.Since(t0).Seconds())
	}
	if cfg.Trace {
		return traceDesignSweep(cfg, o)
	}

	drawer := newStudyDrawer(cfg.Seed)
	var first []wrht.SweepCell
	var studyMs []float64
	cells, busy := 0, 0.0
	for end := cfg.deadline(); len(studyMs) < 2 || time.Now().Before(end); {
		st := drawer.next()
		t0 := time.Now()
		cs, _, err := runStudy(st)
		if err != nil {
			return nil, err
		}
		dt := time.Since(t0).Seconds()
		studyMs = append(studyMs, dt*1e3)
		busy += dt
		cells += len(cs)
		for _, c := range cs {
			if c.Err != nil {
				o.Failed++
			}
		}
		if first == nil {
			first = cs
		}
	}
	o.Attempted = cells
	o.Items = float64(cells) / busy
	o.P50 = median(studyMs)
	o.Named["cells_per_s"] = o.Items
	o.Named["studies"] = float64(len(studyMs))

	checked, mismatched, err := checkSweepCells(cfg.Seed, first)
	if err != nil {
		return nil, err
	}
	o.Attempted += checked
	o.Failed += mismatched
	o.Digest = digestCells(first)
	return o, nil
}

func digestCells(cells []wrht.SweepCell) string {
	d := newDigest()
	for _, c := range cells {
		d.int(int64(c.Nodes))
		d.int(int64(c.Wavelengths))
		d.str(c.Model)
		d.str(string(c.Algorithm))
		if c.Err != nil {
			d.str(c.Err.Error())
			continue
		}
		d.float(c.Comm.Seconds)
		d.float(c.Comm.PredictedSeconds)
		d.int(int64(c.Comm.Steps))
		d.int(int64(c.Comm.MaxWavelengths))
	}
	return d.hex()
}

// sweepCheckSamples is how many cells of the first study are re-priced
// through the boxed reference path.
const sweepCheckSamples = 8

// checkSweepCells re-prices a seeded sample of cells through the boxed
// reference path (core.Plan.Schedule or the collective constructors, then
// runner.RunOptical/RunElectrical) and counts cells whose result differs in
// any bit. The boxed path materializes every transfer, so the sample is
// drawn from cells small enough to materialize: ring schedules (O(N^2)
// transfers) up to 1024 nodes, the others up to 4096.
func checkSweepCells(seed uint64, cells []wrht.SweepCell) (checked, mismatched int, err error) {
	var eligible []wrht.SweepCell
	for _, c := range cells {
		limit := 4096
		switch c.Algorithm {
		case wrht.AlgERing, wrht.AlgORing, wrht.AlgORingStriped:
			limit = 1024
		}
		if c.Nodes <= limit && c.Err == nil {
			eligible = append(eligible, c)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed0002))
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	for _, c := range eligible[:min(sweepCheckSamples, len(eligible))] {
		res, steps, err := boxedPrice(c)
		if err != nil {
			return 0, 0, fmt.Errorf("boxed re-price of %s N=%d W=%d %s: %w", c.Algorithm, c.Nodes, c.Wavelengths, c.Model, err)
		}
		checked++
		if res.TotalSec != c.Comm.Seconds || res.MaxWavelengths != c.Comm.MaxWavelengths || steps != c.Comm.Steps {
			mismatched++
			fmt.Printf("design-sweep check: %s N=%d W=%d %s: sweep %v (%d steps), boxed %v (%d steps)\n",
				c.Algorithm, c.Nodes, c.Wavelengths, c.Model, c.Comm.Seconds, c.Comm.Steps, res.TotalSec, steps)
		}
	}
	return checked, mismatched, nil
}

// cellConfig is the configuration a sweep cell was priced under.
func cellConfig(n, w int) wrht.Config {
	cfg := wrht.DefaultConfig(n)
	cfg.Optical.Wavelengths = w
	return cfg
}

func isWrhtAlg(a wrht.Algorithm) bool {
	return a == wrht.AlgWrht || a == wrht.AlgWrhtUnstriped || a == wrht.AlgWrhtPipelined
}

func isElectricalAlg(a wrht.Algorithm) bool {
	switch a {
	case wrht.AlgERing, wrht.AlgRD, wrht.AlgHD, wrht.AlgBinomial:
		return true
	}
	return false
}

// planOptions are the planner options the wrht package derives for a Wrht
// variant (only plain wrht stripes over residual wavelengths).
func planOptions(cfg wrht.Config, alg wrht.Algorithm) core.Options {
	opts := core.DefaultOptions()
	opts.Cost = model.CostParamsOf(cfg.Optical)
	opts.Striping = alg == wrht.AlgWrht
	return opts
}

const pipelineChunks = 64

func elemsOf(bytes int64) int { return int((bytes + 3) / 4) }

func opticalOptions(cfg wrht.Config, alg wrht.Algorithm) runner.OpticalOptions {
	opts := runner.DefaultOpticalOptions()
	opts.Params = cfg.Optical
	opts.BytesPerElem = cfg.BytesPerElem
	opts.Assigner = wdm.FirstFit
	if alg == wrht.AlgORingStriped {
		opts.DefaultWidth = cfg.Optical.Wavelengths
	}
	return opts
}

func electricalOptions(cfg wrht.Config) runner.ElectricalOptions {
	return runner.ElectricalOptions{Params: cfg.Electrical, BytesPerElem: cfg.BytesPerElem}
}

// boxedSchedule builds alg's boxed per-transfer schedule.
func boxedSchedule(cfg wrht.Config, alg wrht.Algorithm, elems int) (*collective.Schedule, error) {
	switch alg {
	case wrht.AlgERing, wrht.AlgORing, wrht.AlgORingStriped:
		return collective.RingAllReduce(cfg.Nodes, elems)
	case wrht.AlgRD:
		return collective.RecursiveDoubling(cfg.Nodes, elems)
	case wrht.AlgHD:
		return collective.HalvingDoubling(cfg.Nodes, elems)
	case wrht.AlgBinomial:
		return collective.BinomialTree(cfg.Nodes, elems)
	}
	plan, err := core.BuildPlan(cfg.Nodes, cfg.Optical.Wavelengths, planOptions(cfg, alg))
	if err != nil {
		return nil, err
	}
	if alg == wrht.AlgWrhtPipelined {
		return plan.PipelinedSchedule(elems, pipelineChunks)
	}
	return plan.Schedule(elems)
}

func boxedPrice(c wrht.SweepCell) (runner.Result, int, error) {
	cfg := cellConfig(c.Nodes, c.Wavelengths)
	s, err := boxedSchedule(cfg, c.Algorithm, elemsOf(c.Bytes))
	if err != nil {
		return runner.Result{}, 0, err
	}
	var res runner.Result
	if isElectricalAlg(c.Algorithm) {
		res, err = runner.RunElectrical(s, electricalOptions(cfg))
	} else {
		res, err = runner.RunOptical(s, opticalOptions(cfg, c.Algorithm))
	}
	return res, s.NumSteps(), err
}
