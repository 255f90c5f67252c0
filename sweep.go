package wrht

import (
	"context"
	"fmt"

	"wrht/internal/dnn"
	"wrht/internal/exp"
)

// SweepSpec declares a multi-axis experiment grid over the repository's
// pricing paths. Every non-empty axis contributes one dimension to the
// cartesian product; empty axes pin their dimension to Base. The spec picks
// one of three modes from the axes present:
//
//   - communication (default): nodes × wavelengths × workloads × algorithms
//     × Wrht options, priced by CommunicationTime;
//   - fabric (FabricMixes set): nodes × wavelengths × job mixes × policies,
//     priced by SimulateFabric;
//   - multi-rack (Racks set): racks × nodes-per-rack × wavelengths ×
//     workloads × Wrht options, priced by MultiRackTime.
//
// RunSweep evaluates the grid on a worker pool while all workers share one
// memoized Wrht plan cache, so the redundant core.BuildPlan work that
// dominates wide serial sweeps is paid once per distinct
// (nodes, wavelengths, options) key.
type SweepSpec struct {
	// Base is the template configuration every point starts from. The zero
	// value means the evaluation defaults (DefaultConfig) with the node
	// count taken from the Nodes axis.
	Base Config

	// Nodes and Wavelengths override Base.Nodes / Base.Optical.Wavelengths.
	Nodes       []int
	Wavelengths []int

	// Models names catalog networks (gradient size at Base.BytesPerElem);
	// MessageBytes sweeps raw buffer sizes. Exactly one of the two axes
	// defines the workload of communication and multi-rack sweeps.
	Models       []string
	MessageBytes []int64

	// Algorithms defaults to [AlgWrht] (communication mode only).
	Algorithms []Algorithm

	// GroupSizes, GreedyA2A and PipelineChunks sweep the Wrht planner
	// options (Config.WrhtGroupSize / WrhtGreedyA2A / PipelineChunks); a
	// group size of 0 selects the optimizer. Infeasible combinations fail
	// per point without aborting the sweep.
	GroupSizes     []int
	GreedyA2A      []bool
	PipelineChunks []int

	// FabricMixes switches the sweep to fabric mode: each point co-simulates
	// one mix under one policy. FabricPolicies defaults to FabricPolicies().
	FabricMixes    []FabricMix
	FabricPolicies []FabricPolicy

	// Racks switches the sweep to multi-rack mode (NodesPerRack required;
	// the worker count is racks × nodes-per-rack, so the Nodes axis is
	// rejected).
	Racks        []int
	NodesPerRack []int

	// Parallelism is the worker-pool size; <= 0 selects GOMAXPROCS. Results
	// are independent of it.
	Parallelism int
}

// FabricMix is one named tenant mix of a fabric-mode sweep.
type FabricMix struct {
	// Name labels the mix in results; defaults to "mix<i>".
	Name string
	Jobs []JobSpec
}

// SweepCell is one priced point of a sweep, carrying the resolved scenario
// coordinates, the mode's primary metric (Seconds), the mode-specific detail
// result, and the point's error if pricing failed.
type SweepCell struct {
	// Index is the point's position in deterministic grid order.
	Index int

	Nodes          int
	Wavelengths    int
	Model          string
	Bytes          int64
	Algorithm      Algorithm
	GroupSize      int
	GreedyA2A      bool
	PipelineChunks int
	FabricMix      string
	FabricPolicy   FabricPolicy
	Racks          int
	NodesPerRack   int

	// Seconds is the mode's primary metric: communication time, fabric
	// makespan, or multi-rack total time.
	Seconds float64

	// Exactly one of Comm/Fabric/MultiRack is set on success.
	Comm      *Result
	Fabric    *FabricResult
	MultiRack *MultiRackResult

	// Err captures a per-point failure (e.g. an infeasible group size);
	// failed points keep their slot so the grid shape is preserved.
	Err error
}

// SweepResult is the outcome of RunSweep: cells in deterministic grid order
// plus the shared caches' counters.
type SweepResult struct {
	Cells []SweepCell
	// PlanBuilds is the number of distinct Wrht plans built; PlanHits the
	// number of plan requests served from the shared cache. Both are
	// independent of Parallelism, as are the schedule and simulation
	// counters below.
	PlanBuilds, PlanHits int64
	// SchedBuilds/SchedHits count distinct lowered schedules vs cache-served
	// schedule requests (E-Ring and O-Ring points share one ring schedule;
	// the optimizer's plan and the same explicit group size share one Wrht
	// schedule).
	SchedBuilds, SchedHits int64
	// SimRuns/SimHits count distinct substrate simulations vs cache-served
	// results — each distinct configuration simulates exactly once per sweep.
	SimRuns, SimHits int64
	// Failed counts cells with a non-nil Err.
	Failed int
}

// Err returns the first per-point error in grid order, or nil when every
// point priced successfully.
func (r *SweepResult) Err() error {
	for i := range r.Cells {
		if r.Cells[i].Err != nil {
			return r.Cells[i].Err
		}
	}
	return nil
}

// Lookup returns the first cell matching the predicate in grid order,
// surfacing the cell's own pricing error if it failed.
func (r *SweepResult) Lookup(match func(SweepCell) bool) (SweepCell, error) {
	for _, c := range r.Cells {
		if match(c) {
			return c, c.Err
		}
	}
	return SweepCell{}, fmt.Errorf("wrht: no sweep cell matches")
}

type sweepMode int

const (
	sweepComm sweepMode = iota
	sweepFabric
	sweepMultiRack
)

// RunSweep prices every point of the spec's grid concurrently and returns
// the cells in deterministic grid order regardless of parallelism or
// completion order. Per-point failures are captured in their cells; RunSweep
// itself only fails on a malformed spec.
func RunSweep(spec SweepSpec) (*SweepResult, error) {
	return NewSweepSession().RunSweep(spec)
}

// RunSweep is RunSweep sharing this session's caches across runs.
func (ss *SweepSession) RunSweep(spec SweepSpec) (*SweepResult, error) {
	return ss.RunSweepContext(nil, spec)
}

// RunSweepContext is RunSweep under a cancellation context: once the
// context is done, unevaluated grid points fill their cells' Err slots with
// the context's error (the grid shape is preserved) and in-flight fabric
// points abandon their co-simulations at the next event boundary.
func (ss *SweepSession) RunSweepContext(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	mode, err := spec.mode()
	if err != nil {
		return nil, err
	}
	spec = spec.normalized(mode)
	pts := spec.grid(mode).Points()
	cells, errs := exp.RunContext(ctx, len(pts), spec.Parallelism, func(i int) (SweepCell, error) {
		var cell SweepCell
		switch mode {
		case sweepFabric:
			cell = spec.priceFabric(ctx, pts[i], ss)
		case sweepMultiRack:
			cell = spec.priceMultiRack(pts[i], ss)
		default:
			cell = spec.priceComm(pts[i], ss)
		}
		return cell, cell.Err
	})
	for i := range cells {
		// Points skipped by cancellation come back as zero cells with the
		// error only in the slot array; keep the grid shape and surface the
		// cancellation as the cell's error.
		if errs[i] != nil && cells[i].Err == nil {
			cells[i] = SweepCell{Index: i, Err: errs[i]}
		}
	}
	res := &SweepResult{Cells: cells}
	res.PlanHits, res.PlanBuilds = ss.plans.Stats()
	res.SchedHits, res.SchedBuilds = ss.scheds.Stats()
	res.SimHits, res.SimRuns = ss.sims.Stats()
	for i := range cells {
		if cells[i].Err != nil {
			res.Failed++
		}
	}
	return res, nil
}

// base returns the template configuration (evaluation defaults when unset,
// with Nodes left to the axis).
func (spec SweepSpec) base() Config {
	if spec.Base == (Config{}) {
		b := DefaultConfig(2)
		b.Nodes = 0
		return b
	}
	return spec.Base
}

// mode classifies the spec and rejects inconsistent axis combinations.
func (spec SweepSpec) mode() (sweepMode, error) {
	fabric := len(spec.FabricMixes) > 0 || len(spec.FabricPolicies) > 0
	multi := len(spec.Racks) > 0 || len(spec.NodesPerRack) > 0
	if fabric && multi {
		return 0, fmt.Errorf("wrht: sweep mixes fabric and multi-rack axes")
	}
	workloads := len(spec.Models) > 0 || len(spec.MessageBytes) > 0
	if len(spec.Models) > 0 && len(spec.MessageBytes) > 0 {
		return 0, fmt.Errorf("wrht: sweep sets both Models and MessageBytes; pick one workload axis")
	}
	switch {
	case fabric:
		if len(spec.FabricMixes) == 0 {
			return 0, fmt.Errorf("wrht: fabric sweep needs at least one FabricMix")
		}
		if workloads || len(spec.Algorithms) > 0 || len(spec.GroupSizes) > 0 ||
			len(spec.GreedyA2A) > 0 || len(spec.PipelineChunks) > 0 {
			return 0, fmt.Errorf("wrht: fabric sweeps take workloads and algorithms from their job mixes; drop the communication axes")
		}
		if len(spec.Nodes) == 0 && spec.base().Nodes < 2 {
			return 0, fmt.Errorf("wrht: fabric sweep needs a Nodes axis or Base.Nodes")
		}
		return sweepFabric, nil
	case multi:
		if len(spec.Racks) == 0 || len(spec.NodesPerRack) == 0 {
			return 0, fmt.Errorf("wrht: multi-rack sweep needs both Racks and NodesPerRack")
		}
		if !workloads {
			return 0, fmt.Errorf("wrht: multi-rack sweep needs Models or MessageBytes")
		}
		if len(spec.Nodes) > 0 {
			return 0, fmt.Errorf("wrht: multi-rack sweeps derive the worker count from Racks × NodesPerRack; drop the Nodes axis")
		}
		if len(spec.Algorithms) > 0 || len(spec.PipelineChunks) > 0 {
			return 0, fmt.Errorf("wrht: multi-rack sweeps price per-rack Wrht plus the electrical leader ring; drop Algorithms/PipelineChunks")
		}
		return sweepMultiRack, nil
	default:
		if !workloads {
			return 0, fmt.Errorf("wrht: sweep needs Models or MessageBytes")
		}
		if len(spec.Nodes) == 0 && spec.base().Nodes < 2 {
			return 0, fmt.Errorf("wrht: sweep needs a Nodes axis or Base.Nodes")
		}
		return sweepComm, nil
	}
}

// normalized fills the mode's defaulted axes.
func (spec SweepSpec) normalized(mode sweepMode) SweepSpec {
	switch mode {
	case sweepComm:
		if len(spec.Algorithms) == 0 {
			spec.Algorithms = []Algorithm{AlgWrht}
		}
	case sweepFabric:
		if len(spec.FabricPolicies) == 0 {
			spec.FabricPolicies = FabricPolicies()
		}
	}
	return spec
}

// grid lowers the spec to the engine's domain-neutral axes.
func (spec SweepSpec) grid(mode sweepMode) exp.Grid {
	g := exp.Grid{
		Nodes:          spec.Nodes,
		Wavelengths:    spec.Wavelengths,
		Models:         spec.Models,
		MessageBytes:   spec.MessageBytes,
		GroupSizes:     spec.GroupSizes,
		GreedyA2A:      spec.GreedyA2A,
		PipelineChunks: spec.PipelineChunks,
		Racks:          spec.Racks,
		NodesPerRack:   spec.NodesPerRack,
	}
	if mode == sweepComm {
		for _, a := range spec.Algorithms {
			g.Algorithms = append(g.Algorithms, string(a))
		}
	}
	if mode == sweepFabric {
		g.FabricMixes = indexAxis(len(spec.FabricMixes))
		g.FabricPolicies = indexAxis(len(spec.FabricPolicies))
	}
	return g
}

func indexAxis(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pointConfig resolves the point's coordinates onto the base configuration.
func (spec SweepSpec) pointConfig(pt exp.Point) Config {
	cfg := spec.base()
	if pt.Nodes > 0 {
		cfg.Nodes = pt.Nodes
	}
	if pt.Wavelengths > 0 {
		cfg.Optical.Wavelengths = pt.Wavelengths
	}
	// Axis presence gates the option overrides because their zero values
	// (optimizer group size, formula policy, default chunking) are
	// themselves sweepable coordinates.
	if len(spec.GroupSizes) > 0 {
		cfg.WrhtGroupSize = pt.GroupSize
	}
	if len(spec.GreedyA2A) > 0 {
		cfg.WrhtGreedyA2A = pt.GreedyA2A
	}
	if len(spec.PipelineChunks) > 0 {
		cfg.PipelineChunks = pt.PipelineChunks
	}
	return cfg
}

// pointBytes resolves the point's workload size.
func (spec SweepSpec) pointBytes(cfg Config, pt exp.Point) (int64, error) {
	if pt.Model != "" {
		m, err := dnn.ByName(pt.Model)
		if err != nil {
			return 0, err
		}
		bpe := cfg.BytesPerElem
		if bpe == 0 {
			bpe = 4
		}
		return m.GradientBytes(bpe), nil
	}
	if pt.MessageBytes <= 0 {
		return 0, fmt.Errorf("wrht: sweep point %d has no model and non-positive bytes %d",
			pt.Index, pt.MessageBytes)
	}
	return pt.MessageBytes, nil
}

// priceComm evaluates one communication-mode point.
func (spec SweepSpec) priceComm(pt exp.Point, ss *SweepSession) SweepCell {
	cfg := spec.pointConfig(pt)
	cell := SweepCell{
		Index:          pt.Index,
		Nodes:          cfg.Nodes,
		Wavelengths:    cfg.Optical.Wavelengths,
		Model:          pt.Model,
		Algorithm:      Algorithm(pt.Algorithm),
		GroupSize:      cfg.WrhtGroupSize,
		GreedyA2A:      cfg.WrhtGreedyA2A,
		PipelineChunks: cfg.PipelineChunks,
	}
	bytes, err := spec.pointBytes(cfg, pt)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.Bytes = bytes
	r, err := ss.CommunicationTime(cfg, cell.Algorithm, bytes)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.Comm = &r
	cell.Seconds = r.Seconds
	return cell
}

// priceFabric evaluates one fabric-mode point; a done ctx aborts the point's
// co-simulation at an event boundary.
func (spec SweepSpec) priceFabric(ctx context.Context, pt exp.Point, ss *SweepSession) SweepCell {
	cfg := spec.pointConfig(pt)
	mix := spec.FabricMixes[pt.FabricMix]
	if mix.Name == "" {
		mix.Name = fmt.Sprintf("mix%d", pt.FabricMix)
	}
	policy := spec.FabricPolicies[pt.FabricPolicy]
	cell := SweepCell{
		Index:        pt.Index,
		Nodes:        cfg.Nodes,
		Wavelengths:  cfg.Optical.Wavelengths,
		FabricMix:    mix.Name,
		FabricPolicy: policy,
	}
	fr, err := ss.SimulateFabricContext(ctx, cfg, mix.Jobs, policy)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.Fabric = &fr
	cell.Seconds = fr.MakespanSec
	return cell
}

// priceMultiRack evaluates one multi-rack-mode point.
func (spec SweepSpec) priceMultiRack(pt exp.Point, ss *SweepSession) SweepCell {
	cfg := spec.pointConfig(pt)
	cell := SweepCell{
		Index:        pt.Index,
		Nodes:        pt.Racks * pt.NodesPerRack,
		Wavelengths:  cfg.Optical.Wavelengths,
		Model:        pt.Model,
		GroupSize:    cfg.WrhtGroupSize,
		GreedyA2A:    cfg.WrhtGreedyA2A,
		Racks:        pt.Racks,
		NodesPerRack: pt.NodesPerRack,
	}
	bytes, err := spec.pointBytes(cfg, pt)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.Bytes = bytes
	mr, err := ss.multiRackTime(cfg, pt.Racks, pt.NodesPerRack, bytes)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.MultiRack = &mr
	cell.Seconds = mr.TotalSec
	return cell
}
