package wrht

import (
	"fmt"

	"wrht/internal/collective"
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
	return NewSweepSession().multiRackTime(cfg, racks, nodesPerRack, bytes)
}

// multiRackPlan builds the hierarchy MultiRackTime prices and
// VerifyMultiRack executes: the per-rack plan is the AlgWrht plan of a
// nodesPerRack-node ring, taken from the session's plan cache (RunSweep
// shares it across multi-rack points).
func (ss *SweepSession) multiRackPlan(cfg Config, racks, nodesPerRack int) (*multiring.Plan, error) {
	return multiring.BuildPlanWith(racks, nodesPerRack, cfg.Optical.Wavelengths,
		wrhtOptions(cfg, AlgWrht), ss.plans.Plan)
}

// multiRackTime is MultiRackTime on the session's plan cache.
func (ss *SweepSession) multiRackTime(cfg Config, racks, nodesPerRack int, bytes int64) (MultiRackResult, error) {
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
	plan, err := ss.multiRackPlan(cfg, racks, nodesPerRack)
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

// VerifyMultiRack executes the composed hierarchical schedule — the plan
// MultiRackTime prices — on real buffers and confirms every worker ends
// with the exact global sum.
func VerifyMultiRack(cfg Config, racks, nodesPerRack, elems int) error {
	return NewSweepSession().verifyMultiRack(cfg, racks, nodesPerRack, elems)
}

// verifyMultiRack is VerifyMultiRack on the session's plan cache.
func (ss *SweepSession) verifyMultiRack(cfg Config, racks, nodesPerRack, elems int) error {
	plan, err := ss.multiRackPlan(cfg, racks, nodesPerRack)
	if err != nil {
		return err
	}
	s, err := plan.GlobalSchedule(elems)
	if err != nil {
		return err
	}
	return collective.VerifyAllReduce(s)
}
