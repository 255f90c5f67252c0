package wrht

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/model"
	"wrht/internal/multiring"
)

// MultiRackResult describes a hierarchical all-reduce over several optical
// rings joined by an electrical leader network.
type MultiRackResult struct {
	Racks, NodesPerRack int
	// Phase timings: Wrht reduce inside every rack (parallel), leader
	// all-reduce across racks, mirrored broadcast.
	IntraReduceSec    float64
	InterSec          float64
	IntraBroadcastSec float64
	TotalSec          float64
	// FlatERingSec is the flat electrical ring over all workers, for
	// comparison.
	FlatERingSec float64
}

// MultiRackTime prices a hierarchical all-reduce of `bytes` bytes over
// racks × nodesPerRack workers: per-rack Wrht on cfg.Optical rings, leaders
// all-reduced over cfg.Electrical. cfg.Nodes is ignored (the worker count is
// racks × nodesPerRack).
func MultiRackTime(cfg Config, racks, nodesPerRack int, bytes int64) (MultiRackResult, error) {
	return multiRackTime(cfg, racks, nodesPerRack, bytes, core.BuildPlan)
}

// multiRackTime is MultiRackTime with an injectable intra-rack plan builder
// (RunSweep shares its memoized cache across multi-rack points).
func multiRackTime(cfg Config, racks, nodesPerRack int, bytes int64, build planBuilder) (MultiRackResult, error) {
	if err := cfg.Optical.Validate(); err != nil {
		return MultiRackResult{}, err
	}
	if err := cfg.Electrical.Validate(); err != nil {
		return MultiRackResult{}, err
	}
	bpe := cfg.BytesPerElem
	if bpe == 0 {
		bpe = 4
	}
	if bpe < 1 {
		// Same validation CommunicationTime applies (via Config.Validate);
		// only the zero value means "default", a negative width is an error,
		// not a silent negative element count.
		return MultiRackResult{}, fmt.Errorf("wrht: BytesPerElem %d", cfg.BytesPerElem)
	}
	elems, err := bufferElems(bytes, bpe)
	if err != nil {
		return MultiRackResult{}, err
	}
	opts := core.DefaultOptions()
	opts.Cost = model.CostParamsOf(cfg.Optical)
	opts.M = cfg.WrhtGroupSize
	if cfg.WrhtGreedyA2A {
		opts.Policy = core.A2AGreedy
	}
	plan, err := multiring.BuildPlanWith(racks, nodesPerRack, cfg.Optical.Wavelengths, opts,
		multiring.PlanBuilder(build))
	if err != nil {
		return MultiRackResult{}, err
	}
	tb, err := plan.Time(elems, cfg.Optical, cfg.Electrical)
	if err != nil {
		return MultiRackResult{}, err
	}
	return MultiRackResult{
		Racks: racks, NodesPerRack: nodesPerRack,
		IntraReduceSec:    tb.IntraReduceSec,
		InterSec:          tb.InterSec,
		IntraBroadcastSec: tb.IntraBroadcastSec,
		TotalSec:          tb.TotalSec(),
		FlatERingSec:      model.ERing(racks*nodesPerRack, int64(elems)*int64(bpe), cfg.Electrical),
	}, nil
}

// VerifyMultiRack executes the composed hierarchical schedule on real
// buffers and confirms every worker ends with the exact global sum.
func VerifyMultiRack(cfg Config, racks, nodesPerRack, elems int) error {
	opts := core.DefaultOptions()
	opts.Cost = model.CostParamsOf(cfg.Optical)
	opts.M = cfg.WrhtGroupSize
	plan, err := multiring.BuildPlan(racks, nodesPerRack, cfg.Optical.Wavelengths, opts)
	if err != nil {
		return err
	}
	s, err := plan.GlobalSchedule(elems)
	if err != nil {
		return err
	}
	return collective.VerifyAllReduce(s)
}
