package core

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/tensor"
)

// MaxPipelineChunks bounds the pipeline chunk count. Schedule construction
// and simulation are O(chunks), so an unbounded count turns a bad input
// into a multi-minute hang instead of an error; no realistic pipeline needs
// more stages in flight than this.
const MaxPipelineChunks = 1 << 16

// PipelinedSchedule is the chunked-pipeline extension of Wrht (beyond the
// paper; its natural "future work"): the buffer is split into `chunks`
// contiguous chunks, and chunk c enters reduce level 1 at global step c, so
// stage s processes chunk c during global step s+c. Total steps grow to
// NumSteps()+chunks-1, but each step serializes only 1/chunks of the buffer.
//
// Pipelining pays off when transfers cannot stripe across the full
// wavelength budget (e.g. the paper's literal one-wavelength-per-transfer
// accounting): concurrent stages then ride distinct wavelengths. Under full
// striping the fabric is already bandwidth-saturated and pipelining only
// adds steps — the ablation BenchmarkAblationPipelining quantifies both
// regimes. Wavelength demand grows with the number of concurrently active
// stages; the substrate splits any over-budget step into rounds, so the
// timing stays honest either way.
func (p *Plan) PipelinedSchedule(elems, chunks int) (*collective.Schedule, error) {
	if err := pipelineArgs(elems, chunks); err != nil {
		return nil, err
	}
	if chunks == 1 {
		return p.Schedule(elems)
	}
	s := &collective.Schedule{Algorithm: p.pipelinedAlgorithm(chunks), N: p.N, Elems: elems}
	p.writePipelined(s, elems, chunks)
	return s, nil
}

// PipelinedClassSchedule is PipelinedSchedule emitted directly in the
// classed form (chunks == 1 is ClassSchedule).
func (p *Plan) PipelinedClassSchedule(elems, chunks int) (*collective.ClassSchedule, error) {
	if err := pipelineArgs(elems, chunks); err != nil {
		return nil, err
	}
	if chunks == 1 {
		return p.ClassSchedule(elems)
	}
	b := collective.NewClassScheduleBuilder(p.pipelinedAlgorithm(chunks), p.N, elems)
	p.writePipelined(b, elems, chunks)
	return b.Finish(), nil
}

func pipelineArgs(elems, chunks int) error {
	if chunks < 1 {
		return fmt.Errorf("core: pipeline chunks %d", chunks)
	}
	if chunks > MaxPipelineChunks {
		return fmt.Errorf("core: pipeline chunks %d (max %d)", chunks, MaxPipelineChunks)
	}
	if elems < 0 {
		return fmt.Errorf("core: negative elems %d", elems)
	}
	return nil
}

func (p *Plan) pipelinedAlgorithm(chunks int) string {
	return fmt.Sprintf("wrht-pipelined(m=%d,c=%d)", p.M, chunks)
}

// writePipelined emits the pipeline's global steps: step t runs stage s on
// chunk t-s for every stage whose chunk is in range and non-empty.
func (p *Plan) writePipelined(w collective.StepWriter, elems, chunks int) {
	regions := tensor.Chunks(elems, chunks)
	stages := p.stageTemplates()
	nonEmpty, perChunk := 0, 0
	for _, r := range regions {
		if r.Len > 0 {
			nonEmpty++
		}
	}
	for _, stage := range stages {
		perChunk += len(stage)
	}
	totalSteps := len(stages) + chunks - 1
	w.Grow(totalSteps, nonEmpty*perChunk)
	for t := 0; t < totalSteps; t++ {
		w.StartStep(fmt.Sprintf("pipeline step %d", t+1))
		for si, stage := range stages {
			c := t - si
			if c < 0 || c >= chunks || regions[c].Len == 0 {
				continue
			}
			for _, tr := range stage {
				tr.Region = regions[c]
				w.Add(tr)
			}
		}
	}
}

// stageTemplates lowers the plan to its stage sequence (the pipeline
// substitutes per-chunk regions for the full-buffer ones).
func (p *Plan) stageTemplates() [][]collective.Transfer {
	var stages [][]collective.Transfer
	full := tensor.Region{}
	tree := func(li int, broadcast bool) []collective.Transfer {
		var out []collective.Transfer
		add := func(tr collective.Transfer) { out = append(out, tr) }
		for _, g := range p.ReduceLevels[li].Groups {
			emitGroup(add, g, full, p.TreeStripe, broadcast)
		}
		return out
	}
	for li := range p.ReduceLevels {
		stages = append(stages, tree(li, false))
	}
	if p.A2AReps != nil {
		var out []collective.Transfer
		p.emitA2A(func(tr collective.Transfer) { out = append(out, tr) }, full)
		stages = append(stages, out)
	}
	for li := len(p.ReduceLevels) - 1; li >= 0; li-- {
		stages = append(stages, tree(li, true))
	}
	return stages
}
