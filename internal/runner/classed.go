package runner

import (
	"fmt"
	"slices"

	"wrht/internal/collective"
	"wrht/internal/electrical"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/ring"
	"wrht/internal/wdm"
)

// RunOpticalClassed prices the symmetry-aware classed schedule form on the
// WDM ring: steps carrying a verified rotational-symmetry certificate are
// priced from one representative per equivalence class (plus one orbit
// wavelength assignment, memoized by shape), turning the hot path from
// O(transfers) to O(classes) per step; steps without a certificate — and
// every step when the assigner is not First Fit or fabric replay is
// requested — are materialized and priced by the exact per-transfer path.
// Step colorings are memoized for the run, so repeated step patterns (the
// chunk rounds of a pipelined schedule) are colored once. Results are
// bit-identical to RunOptical on the expanded schedule (golden and property
// tests enforce this).
func RunOpticalClassed(cls *collective.ClassSchedule, opts OpticalOptions) (Result, error) {
	return RunOpticalClassedObserved(cls, opts, nil, "", nil)
}

// RunOpticalClassedObserved is RunOpticalClassed with a flight recorder
// attached: each step is recorded as a span (duration, wavelengths,
// transfers, classes, rounds) on a per-run process named proc, plus a "λ
// used" counter track and symmetric-vs-materialized step counters. The
// recorder never influences pricing — results are bit-identical to the
// unobserved path — and a nil recorder costs one branch per step.
//
// colorings is the coloring cache the run looks steps up in and fills; nil
// means a cache private to this run. Fabric replay needs every step's
// stripes, so ValidateFabric bypasses the cache.
func RunOpticalClassedObserved(cls *collective.ClassSchedule, opts OpticalOptions, rec *obs.Recorder, proc string, colorings *wdm.ColoringCache) (Result, error) {
	if err := cls.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.normalize(); err != nil {
		return Result{}, err
	}
	topo, err := ring.New(cls.N)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Algorithm: cls.Algorithm,
		Substrate: fmt.Sprintf("optical-ring(w=%d)", opts.Params.Wavelengths),
		StepSec:   make([]float64, 0, cls.NumSteps()),
	}
	var fabric *optical.Fabric
	if opts.ValidateFabric {
		fabric, err = optical.NewFabric(topo, opts.Params)
		if err != nil {
			return Result{}, err
		}
	}
	pricer, err := optical.NewStepPricer(topo, opts.Params, opts.Assigner)
	if err != nil {
		return Result{}, err
	}
	if fabric == nil {
		if colorings == nil {
			colorings = wdm.NewColoringCache()
		}
		pricer.UseColorings(colorings)
	}
	var (
		specs, active []optical.TransferSpec
		orbit         []wdm.Demand
		classes       []optical.ClassSpec
	)
	stepTrack, widthTrack := obs.NoTrack, obs.NoTrack
	if rec.Enabled() {
		p := rec.Process(proc)
		stepTrack = rec.Track(p, "steps")
		widthTrack = rec.CounterTrack(p, "λ used")
	}
	now := 0.0
	for si := 0; si < cls.NumSteps(); si++ {
		var sr optical.StepResult
		priced := false
		if _, _, disjoint, _, sym := cls.Sym(si); sym && opts.Assigner == wdm.FirstFit && fabric == nil {
			classes = classes[:0]
			lo, hi := cls.ClassBounds(si)
			for i := lo; i < hi; i++ {
				c := cls.Class(i)
				width := int(c.Width)
				if width == 0 {
					width = opts.DefaultWidth
				}
				classes = append(classes, optical.ClassSpec{
					Bytes: int64(c.Len) * int64(opts.BytesPerElem),
					Width: width,
					Hops:  int(c.Hops),
					Count: int(c.Count),
				})
			}
			orbit = orbit[:0]
			olo, ohi := cls.OrbitBounds(si)
			for i := olo; i < ohi; i++ {
				src, dst, width, dir, routed := cls.OrbitAt(i)
				if width == 0 {
					width = opts.DefaultWidth
				}
				orbit = append(orbit, wdm.Demand{Arc: topo.Route(src, dst, dir, routed), Width: width})
			}
			sr, priced, err = pricer.PriceSymmetric(orbit, classes, disjoint)
			if err != nil {
				return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, cls.StepLabel(si), err)
			}
		}
		if !priced {
			specs = specs[:0]
			cls.ForEachTransfer(si, func(tr collective.Transfer) {
				width := tr.Width
				if width == 0 {
					width = opts.DefaultWidth
				}
				specs = append(specs, optical.TransferSpec{
					Arc:   topo.Route(tr.Src, tr.Dst, tr.Dir, tr.Routed),
					Bytes: int64(tr.Region.Len) * int64(opts.BytesPerElem),
					Width: width,
				})
			})
			sr, err = pricer.Price(specs)
			if err != nil {
				return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, cls.StepLabel(si), err)
			}
			if fabric != nil {
				active = activeSpecs(opts.Params, specs, active[:0])
				if err := replayRounds(topo, opts.Params, fabric, active, sr, now); err != nil {
					return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, cls.StepLabel(si), err)
				}
			}
		}
		res.addOpticalStep(sr)
		if rec.Enabled() {
			nClasses := 0
			if priced {
				lo, hi := cls.ClassBounds(si)
				nClasses = hi - lo
			}
			rec.Span(stepTrack, cls.StepLabel(si), now, sr.Duration, obs.SpanArgs{
				Wavelengths: int64(sr.WavelengthsUsed),
				Transfers:   int64(cls.StepTransfers(si)),
				Classes:     int64(nClasses),
				Rounds:      int64(sr.Rounds),
			})
			rec.Sample(widthTrack, now, float64(sr.WavelengthsUsed))
			if priced {
				rec.Add("pricer.optical.steps.symmetric", 1)
			} else {
				rec.Add("pricer.optical.steps.materialized", 1)
			}
			rec.AddSeconds("pricer.optical.lambda_seconds", float64(sr.WavelengthsUsed)*sr.Duration)
		}
		now += sr.Duration
	}
	rec.Add("pricer.optical.runs", 1)
	return res, nil
}

// RunElectricalClassed prices the classed schedule on the electrical
// substrate, bit-identically to RunElectrical on the expanded schedule.
// Every partial-permutation step on the default non-blocking cluster —
// certified or materialized — is priced through the class-level fluid
// solver: a certified step passes one bit count per pricing class, a
// materialized one one bit count per distinct positive region length.
// Progressive filling on a permutation depends only on the set of distinct
// flow sizes, so this is bit-identical to the per-flow solve. Every other
// step — including every step on a custom Network — is materialized and
// priced by the exact per-flow path.
func RunElectricalClassed(cls *collective.ClassSchedule, opts ElectricalOptions) (Result, error) {
	return RunElectricalClassedObserved(cls, opts, nil, "")
}

// RunElectricalClassedObserved is RunElectricalClassed with a flight
// recorder attached (see RunOpticalClassedObserved for the contract): each
// step records a span on process proc plus classed-vs-exact flow-solver
// counters. A nil recorder costs one branch per step.
func RunElectricalClassedObserved(cls *collective.ClassSchedule, opts ElectricalOptions, rec *obs.Recorder, proc string) (Result, error) {
	if err := cls.Validate(); err != nil {
		return Result{}, err
	}
	defaultNet := opts.Network == nil
	if err := opts.normalize(cls.N); err != nil {
		return Result{}, err
	}
	nw := opts.Network
	res := Result{
		Algorithm: cls.Algorithm,
		Substrate: nw.Name(),
		StepSec:   make([]float64, 0, cls.NumSteps()),
	}
	solver := electrical.NewSolver(nw)
	var classSolver *electrical.ClassSolver
	var flows []electrical.Flow
	var bits []float64
	var lens []int
	stepTrack := obs.NoTrack
	if rec.Enabled() {
		stepTrack = rec.Track(rec.Process(proc), "steps")
	}
	now := 0.0
	for si := 0; si < cls.NumSteps(); si++ {
		var d float64
		var err error
		_, _, _, perm, sym := cls.Sym(si)
		classed := perm && defaultNet
		if classed {
			bits = bits[:0]
			if sym {
				lo, hi := cls.ClassBounds(si)
				for i := lo; i < hi; i++ {
					if c := cls.Class(i); c.Len != 0 {
						bits = append(bits, float64(c.Len)*float64(opts.BytesPerElem)*8)
					}
				}
			} else {
				// A materialized permutation: one class per distinct
				// positive region length.
				lens = lens[:0]
				cls.ForEachTransfer(si, func(tr collective.Transfer) {
					if tr.Region.Len != 0 {
						lens = append(lens, tr.Region.Len)
					}
				})
				slices.Sort(lens)
				for _, l := range slices.Compact(lens) {
					bits = append(bits, float64(l)*float64(opts.BytesPerElem)*8)
				}
			}
			if classSolver == nil {
				classSolver, err = electrical.NewClassSolver(opts.Params.LinkGbps)
				if err != nil {
					return Result{}, err
				}
			}
			d, err = classSolver.StepCost(opts.Params, bits)
		} else {
			flows = flows[:0]
			cls.ForEachTransfer(si, func(tr collective.Transfer) {
				flows = append(flows, electrical.Flow{
					Src: tr.Src, Dst: tr.Dst,
					Bits: float64(tr.Region.Len) * float64(opts.BytesPerElem) * 8,
				})
			})
			d, err = solver.StepCost(opts.Params, flows)
		}
		if err != nil {
			return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, cls.StepLabel(si), err)
		}
		res.StepSec = append(res.StepSec, d)
		res.TotalSec += d
		if rec.Enabled() {
			nClasses := 0
			if classed {
				lo, hi := cls.ClassBounds(si)
				nClasses = hi - lo
			}
			rec.Span(stepTrack, cls.StepLabel(si), now, d, obs.SpanArgs{
				Transfers: int64(cls.StepTransfers(si)),
				Classes:   int64(nClasses),
			})
			if classed {
				rec.Add("pricer.electrical.steps.classed", 1)
			} else {
				rec.Add("pricer.electrical.steps.exact", 1)
			}
		}
		now += d
	}
	rec.Add("pricer.electrical.runs", 1)
	return res, nil
}
