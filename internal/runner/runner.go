// Package runner executes collective schedules against the optical and
// electrical substrates, producing timing results, and replays optical
// schedules through the reservation fabric to certify that the wavelength
// assignments are physically realizable. It is the glue between algorithm
// (internal/collective, internal/core) and substrate (internal/optical,
// internal/electrical); every number in EXPERIMENTS.md comes out of this
// package.
//
// There is one production runner per substrate, RunOpticalClassed and
// RunElectricalClassed, on the classed schedule form. RunOptical and
// RunElectrical price the boxed form one transfer at a time; they are the
// independent reference the classed runners are tested against.
package runner

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/electrical"
	"wrht/internal/optical"
	"wrht/internal/ring"
	"wrht/internal/wdm"
)

// Result is the timing outcome of running one schedule on one substrate.
type Result struct {
	Algorithm string
	Substrate string
	// TotalSec is the end-to-end communication time.
	TotalSec float64
	// StepSec holds per-step durations (len == schedule steps).
	StepSec []float64
	// MaxWavelengths is the largest number of wavelengths lit in any round
	// (optical only).
	MaxWavelengths int
	// ExtraRounds counts steps that had to be split because their demand
	// exceeded the wavelength budget (optical only; 0 for Wrht by design).
	ExtraRounds int
}

// OpticalOptions configures optical execution.
type OpticalOptions struct {
	Params optical.Params
	// Assigner is the wavelength-assignment heuristic (paper §2: First Fit
	// or Best Fit).
	Assigner wdm.Policy
	// DefaultWidth applies to transfers whose Width hint is zero: 1
	// reproduces the paper's single-wavelength baselines (O-Ring); set it to
	// Params.Wavelengths for fully striped variants.
	DefaultWidth int
	// BytesPerElem converts schedule regions (elements) to bytes; 0 means 4
	// (FP32 gradients).
	BytesPerElem int
	// ValidateFabric additionally replays every reservation through the
	// event-level fabric, failing on any (link, wavelength, time) conflict.
	ValidateFabric bool
}

// DefaultOpticalOptions returns TeraRack defaults with First-Fit assignment
// and paper-faithful width-1 fallback.
func DefaultOpticalOptions() OpticalOptions {
	return OpticalOptions{
		Params:       optical.DefaultParams(),
		Assigner:     wdm.FirstFit,
		DefaultWidth: 1,
		BytesPerElem: 4,
	}
}

// normalize applies the option defaults (4-byte elements, width-1
// transfers) and rejects negative values.
func (o *OpticalOptions) normalize() error {
	if o.BytesPerElem == 0 {
		o.BytesPerElem = 4
	}
	if o.BytesPerElem < 1 {
		return fmt.Errorf("runner: BytesPerElem %d", o.BytesPerElem)
	}
	if o.DefaultWidth < 0 {
		return fmt.Errorf("runner: DefaultWidth %d", o.DefaultWidth)
	}
	if o.DefaultWidth == 0 {
		o.DefaultWidth = 1
	}
	return nil
}

// addOpticalStep accounts one priced optical step in the result.
func (r *Result) addOpticalStep(sr optical.StepResult) {
	r.StepSec = append(r.StepSec, sr.Duration)
	r.TotalSec += sr.Duration
	if sr.WavelengthsUsed > r.MaxWavelengths {
		r.MaxWavelengths = sr.WavelengthsUsed
	}
	if sr.Rounds > 1 {
		r.ExtraRounds += sr.Rounds - 1
	}
}

// RunOptical prices the schedule on the WDM ring, one transfer at a time.
// It is the reference the classed runner is tested against.
func RunOptical(s *collective.Schedule, opts OpticalOptions) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.normalize(); err != nil {
		return Result{}, err
	}
	topo, err := ring.New(s.N)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Algorithm: s.Algorithm,
		Substrate: fmt.Sprintf("optical-ring(w=%d)", opts.Params.Wavelengths),
		StepSec:   make([]float64, 0, len(s.Steps)),
	}
	var fabric *optical.Fabric
	if opts.ValidateFabric {
		fabric, err = optical.NewFabric(topo, opts.Params)
		if err != nil {
			return Result{}, err
		}
	}
	now := 0.0
	for si, st := range s.Steps {
		specs := make([]optical.TransferSpec, 0, len(st.Transfers))
		for _, tr := range st.Transfers {
			width := tr.Width
			if width == 0 {
				width = opts.DefaultWidth
			}
			specs = append(specs, optical.TransferSpec{
				Arc:   topo.Route(tr.Src, tr.Dst, tr.Dir, tr.Routed),
				Bytes: int64(tr.Region.Len) * int64(opts.BytesPerElem),
				Width: width,
			})
		}
		sr, err := optical.StepCost(topo, opts.Params, specs, opts.Assigner)
		if err != nil {
			return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, st.Label, err)
		}
		res.addOpticalStep(sr)
		if fabric != nil {
			active := activeSpecs(opts.Params, specs, make([]optical.TransferSpec, 0, len(specs)))
			if err := replayRounds(topo, opts.Params, fabric, active, sr, now); err != nil {
				return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, st.Label, err)
			}
		}
		now += sr.Duration
	}
	return res, nil
}

// activeSpecs reconstructs the active set exactly as StepCost filtered it,
// appending to buf.
func activeSpecs(p optical.Params, specs []optical.TransferSpec, buf []optical.TransferSpec) []optical.TransferSpec {
	for _, tr := range specs {
		if tr.Bytes == 0 {
			continue
		}
		if tr.Width < 1 {
			tr.Width = 1
		}
		if tr.Width > p.Wavelengths {
			tr.Width = p.Wavelengths
		}
		buf = append(buf, tr)
	}
	return buf
}

// replayRounds books the step's active transfers on the fabric, round by
// round, mirroring the timing StepCost charged.
func replayRounds(topo ring.Topology, p optical.Params, fabric *optical.Fabric,
	active []optical.TransferSpec, sr optical.StepResult, stepStart float64) error {
	start := stepStart + p.StepOverheadSec()
	for _, rd := range sr.Assignments {
		longest := 0.0
		for i, di := range rd.Demands {
			tr := active[di]
			d := p.TransferSec(tr.Bytes, tr.Width, topo.Hops(tr.Arc))
			if err := fabric.Reserve(tr.Arc, rd.Assignment.Stripes[i], start, d); err != nil {
				return err
			}
			if d > longest {
				longest = d
			}
		}
		start += longest
	}
	return nil
}

// ElectricalOptions configures electrical execution.
type ElectricalOptions struct {
	Params electrical.Params
	// Network is the topology to run on; its host count must match the
	// schedule. Nil selects a non-blocking switched cluster.
	Network *electrical.Network
	// BytesPerElem converts schedule regions (elements) to bytes; 0 means 4.
	BytesPerElem int
}

// normalize applies the option defaults for a schedule over n hosts
// (4-byte elements, a non-blocking switched cluster for a nil Network) and
// rejects invalid values.
func (o *ElectricalOptions) normalize(n int) error {
	if o.BytesPerElem == 0 {
		o.BytesPerElem = 4
	}
	if o.BytesPerElem < 1 {
		return fmt.Errorf("runner: BytesPerElem %d", o.BytesPerElem)
	}
	if o.Network == nil {
		nw, err := electrical.NewSwitchedCluster(n, o.Params.LinkGbps)
		if err != nil {
			return err
		}
		o.Network = nw
	}
	if o.Network.NumNodes() != n {
		return fmt.Errorf("runner: network has %d hosts, schedule needs %d",
			o.Network.NumNodes(), n)
	}
	return nil
}

// RunElectrical prices the schedule on the electrical substrate, one flow at
// a time. It is the reference the classed runner is tested against.
func RunElectrical(s *collective.Schedule, opts ElectricalOptions) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.normalize(s.N); err != nil {
		return Result{}, err
	}
	nw := opts.Network
	res := Result{
		Algorithm: s.Algorithm,
		Substrate: nw.Name(),
		StepSec:   make([]float64, 0, len(s.Steps)),
	}
	for si, st := range s.Steps {
		flows := make([]electrical.Flow, 0, len(st.Transfers))
		for _, tr := range st.Transfers {
			flows = append(flows, electrical.Flow{
				Src: tr.Src, Dst: tr.Dst,
				Bits: float64(tr.Region.Len) * float64(opts.BytesPerElem) * 8,
			})
		}
		d, err := nw.StepCost(opts.Params, flows)
		if err != nil {
			return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, st.Label, err)
		}
		res.StepSec = append(res.StepSec, d)
		res.TotalSec += d
	}
	return res, nil
}
