// Package wrht is the public API of this repository: a reproduction of
// "Efficient All-reduce for Distributed DNN Training in Optical Interconnect
// Systems" (Dai et al., PPoPP 2023). It plans and prices all-reduce
// operations for data-parallel DNN training on a WDM optical ring
// interconnect (the paper's Wrht scheme) and on electrical baselines
// (ring all-reduce, recursive doubling, and friends), using wavelength- and
// flow-level simulators underneath.
//
// Quick start — price one all-reduce on a dedicated ring:
//
//	cfg := wrht.DefaultConfig(1024)
//	res, err := wrht.CommunicationTime(cfg, wrht.AlgWrht, wrht.MustModel("VGG16").Bytes)
//	fmt.Println(res.Seconds)
//
// Multi-tenant fabric — co-schedule concurrent jobs sharing one ring's
// wavelength budget under static, first-fit, or priority-preemption
// partitioning (see fabric.go and DESIGN.md §3):
//
//	jobs := []wrht.JobSpec{
//		{Name: "serve", Model: "AlexNet", Priority: 2, MaxWavelengths: 16},
//		{Name: "train", Model: "VGG16", ArrivalSec: 1e-3},
//	}
//	fr, err := wrht.SimulateFabric(cfg, jobs, wrht.FabricPolicy{Kind: wrht.FabricPriority})
//	fmt.Println(fr.MakespanSec, fr.Fairness, fr.Utilization)
//
// Fault injection — replay any fabric or fleet simulation under a seeded,
// deterministic failure model (wavelength darkening, transient job crashes
// with checkpoint rollback, whole-fabric outages routed through a fleet
// recovery policy; see faultplan.go and DESIGN.md §10). The zero plan is
// guaranteed to leave every result bit-identical to a fault-free run:
//
//	plan := wrht.FaultPlan{
//		Seed: 1, HorizonSec: 0.1,
//		WavelengthMTBFSec: 20e-3, WavelengthMTTRSec: 2e-3,
//	}
//	fr, err = wrht.SimulateFabric(cfg, jobs, wrht.FabricPolicy{Kind: wrht.FabricElastic}, plan)
//	fmt.Println(fr.Retries, fr.LostWorkSec, fr.Availability)
//
// In a fleet, FleetOptions.Faults arms the same plan on the shared
// timeline and FleetOptions.Recovery picks what happens to jobs caught in
// fabric outages (wrht.RecoveryRetrySameFabric, wrht.RecoveryFailFast, or
// wrht.RecoveryMigrateOnFailure).
//
// Multi-axis experiments — declare a grid and let the concurrent engine
// price it with a shared plan cache (see sweep.go and DESIGN.md §6):
//
//	res, err := wrht.RunSweep(wrht.SweepSpec{
//		Nodes:  []int{128, 256, 512, 1024},
//		Models: []string{"AlexNet", "VGG16"},
//	})
//
// Pricing runs on a zero-allocation fast path — columnar schedules, pooled
// simulator state, and three memoization layers (plan → schedule →
// simulation; DESIGN.md §7) held by a SweepSession. Each package function
// prices on a fresh session; keep one across calls, and repeated sweeps and
// fabric co-simulations never recompute a configuration:
//
//	sess := wrht.NewSweepSession()
//	r1, _ := sess.RunSweep(spec)        // cold
//	r2, _ := sess.RunSweep(spec)        // served from the session caches
//	fmt.Println(sess.Stats())
//
// Sessions are safe for concurrent use (results stay bit-identical to
// serial calls), and each operation's ...Context method cancels in-flight
// simulations at event boundaries (sess.RunSweepContext, …); the plain
// method and the package function forward to it.
//
// Serving — cmd/serve runs an overload-safe HTTP/JSON pricing service
// over a sharded pool of warm sessions, with bounded admission (429 +
// Retry-After), per-request deadlines, duplicate-query coalescing, tiered
// degradation under sustained pressure, and graceful drain on SIGTERM;
// cmd/loadgen measures it (DESIGN.md §11):
//
//	go run ./cmd/serve -addr :8080
//	curl -s localhost:8080/v1/commtime \
//	    -d '{"Nodes":128,"Algorithm":"wrht","Bytes":1048576}'
//	go run ./cmd/loadgen -conc 8 -duration 5s
//
// Linting — the repository's invariants (seeded runs are bit-identical,
// //wrht:noalloc functions never allocate, ...Context variants thread
// their ctx, recorder methods guard before dereferencing) are enforced
// statically by the wrhtlint suite (internal/analysis, DESIGN.md §12).
// CI and TestRepoSelfClean keep the tree diagnostic-clean:
//
//	go run ./cmd/wrhtlint ./...          # whole module, exit 1 on findings
//	go run ./cmd/wrhtlint ./internal/sim # one subtree
//	go run ./cmd/wrhtlint -list          # rule catalogue
//
// A finding is fixed, or suppressed on its own line with a mandatory
// reason: //wrht:allow <rule> -- <why this one is safe>.
//
// Other surfaces: MultiRackTime (hierarchical rings), TrainingIteration
// (DDP overlap), ScheduleOutline (per-step inspection), EnergyReport.
// Runnable programs live in examples/ (quickstart, multi_tenant,
// ddp_training, …) and cmd/ (figure2, sweep, experiments, fabricsim,
// wrhtsim, wrhtviz, serve, loadgen); DESIGN.md holds the system map and
// evaluation defaults.
package wrht

import (
	"context"
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/electrical"
	"wrht/internal/exp"
	"wrht/internal/model"
	"wrht/internal/optical"
	"wrht/internal/runner"
	"wrht/internal/trace"
	"wrht/internal/wdm"
)

// Algorithm names an all-reduce algorithm/substrate combination.
type Algorithm string

const (
	// AlgERing is ring all-reduce on the electrical network (paper: E-Ring).
	AlgERing Algorithm = "e-ring"
	// AlgRD is recursive doubling on the electrical network (paper: RD).
	AlgRD Algorithm = "rd"
	// AlgHD is halving-doubling (Rabenseifner) on the electrical network.
	AlgHD Algorithm = "hd"
	// AlgBinomial is a binomial reduce+broadcast tree on the electrical network.
	AlgBinomial Algorithm = "binomial"
	// AlgORing is ring all-reduce on the optical ring with one wavelength
	// per transfer (paper: O-Ring).
	AlgORing Algorithm = "o-ring"
	// AlgORingStriped is the ablation variant of O-Ring striping each
	// transfer across all wavelengths.
	AlgORingStriped Algorithm = "o-ring-striped"
	// AlgWrht is the paper's scheme with the optimizer-chosen group size.
	AlgWrht Algorithm = "wrht"
	// AlgWrhtUnstriped is Wrht restricted to one wavelength per transfer
	// (the paper's literal wavelength accounting).
	AlgWrhtUnstriped Algorithm = "wrht-unstriped"
	// AlgWrhtPipelined is the chunked-pipeline extension of the unstriped
	// scheme: chunks flow through the tree stages concurrently on distinct
	// wavelengths (Config.PipelineChunks; default 64).
	AlgWrhtPipelined Algorithm = "wrht-pipelined"
)

// Algorithms returns every supported algorithm in report order.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgERing, AlgRD, AlgHD, AlgBinomial,
		AlgORing, AlgORingStriped, AlgWrht, AlgWrhtUnstriped, AlgWrhtPipelined,
	}
}

// PaperAlgorithms returns the four algorithms of the paper's Figure 2, in
// the paper's legend order.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{AlgERing, AlgRD, AlgORing, AlgWrht}
}

// Config describes the cluster under test.
type Config struct {
	// Nodes is the worker count (the paper sweeps 128–1024).
	Nodes int
	// Optical parameterizes the WDM ring (TeraRack-like defaults).
	Optical optical.Params
	// Electrical parameterizes the SimGrid-like electrical network.
	Electrical electrical.Params
	// BytesPerElem is the gradient element width (4 = FP32).
	BytesPerElem int
	// WrhtGroupSize fixes Wrht's m; 0 lets the optimizer choose.
	WrhtGroupSize int
	// WrhtGreedyA2A switches Wrht to the greedy all-to-all trigger.
	WrhtGreedyA2A bool
	// PipelineChunks sets the chunk count for AlgWrhtPipelined (0 = 64).
	PipelineChunks int
}

// DefaultConfig returns the evaluation defaults for n workers (DESIGN.md §4).
func DefaultConfig(n int) Config {
	return Config{
		Nodes:        n,
		Optical:      optical.DefaultParams(),
		Electrical:   electrical.DefaultParams(),
		BytesPerElem: 4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("wrht: need at least 2 nodes, got %d", c.Nodes)
	}
	if err := c.Optical.Validate(); err != nil {
		return err
	}
	if err := c.Electrical.Validate(); err != nil {
		return err
	}
	if c.BytesPerElem < 1 {
		return fmt.Errorf("wrht: BytesPerElem %d", c.BytesPerElem)
	}
	return nil
}

// Result is the outcome of pricing one algorithm.
type Result struct {
	Algorithm Algorithm
	// Substrate identifies the simulated network.
	Substrate string
	// Seconds is the simulated end-to-end communication time.
	Seconds float64
	// PredictedSeconds is the closed-form analytic time (model package);
	// simulation and prediction agree within ~1%.
	PredictedSeconds float64
	// Steps is the number of synchronous communication steps.
	Steps int
	// MaxWavelengths is the peak number of lit wavelengths (optical only).
	MaxWavelengths int
}

// ModelSpec is a catalog entry of the paper's evaluation networks.
type ModelSpec struct {
	Name   string
	Params int64
	// Bytes is the FP32 gradient size.
	Bytes int64
	// Layers is the number of parameterized layers.
	Layers int
}

// Models returns the paper's four evaluation networks (AlexNet, VGG16,
// ResNet50, GoogLeNet) with layer-accurate parameter counts.
func Models() []ModelSpec {
	var out []ModelSpec
	for _, m := range dnn.PaperModels() {
		out = append(out, ModelSpec{
			Name:   m.Name,
			Params: m.TotalParams(),
			Bytes:  m.GradientBytes(4),
			Layers: len(m.Layers),
		})
	}
	return out
}

// MustModel returns the named catalog model or panics; use for the four
// known names.
func MustModel(name string) ModelSpec {
	m, err := dnn.ByName(name)
	if err != nil {
		panic(err)
	}
	return ModelSpec{
		Name:   m.Name,
		Params: m.TotalParams(),
		Bytes:  m.GradientBytes(4),
		Layers: len(m.Layers),
	}
}

// wrhtOptions lowers the configuration to planner options for alg (striping
// is an algorithm property: only AlgWrht rides residual WDM capacity).
func wrhtOptions(cfg Config, alg Algorithm) core.Options {
	opts := core.DefaultOptions()
	opts.Cost = model.CostParamsOf(cfg.Optical)
	opts.Striping = alg == AlgWrht
	opts.M = cfg.WrhtGroupSize
	if cfg.WrhtGreedyA2A {
		opts.Policy = core.A2AGreedy
	}
	return opts
}

// pipelineChunks resolves the chunk count for AlgWrhtPipelined.
func pipelineChunks(cfg Config) int {
	if cfg.PipelineChunks == 0 {
		return 64
	}
	return cfg.PipelineChunks
}

// lowering is how an algorithm's schedules are built: its identity in the
// cross-run schedule cache, the Wrht plan behind it (nil for the baselines),
// and its schedule constructors.
type lowering struct {
	// name is the schedule-cache identity: E-Ring, O-Ring, and striped
	// O-Ring all lower to the same ring schedule ("ring"); Wrht plans are
	// identified by their signature instead ("").
	name string
	plan *core.Plan
	// boxed builds the tensor-executable oracle form; classed builds the
	// classed form the pricing path consumes, directly.
	boxed   func(elems int) (*collective.Schedule, error)
	classed func(elems int) (*collective.ClassSchedule, error)
	// compact builds the columnar form the message-level simulator
	// consumes; nil means it is converted from the boxed form.
	compact func(elems int) (*collective.CompactSchedule, error)
}

// lower maps alg to its lowering, taking a Wrht plan from the session's plan
// cache. It is the one place an Algorithm is turned into a schedule source,
// and it rejects unknown algorithms before any other cache is consulted.
func (ss *SweepSession) lower(cfg Config, alg Algorithm) (lowering, error) {
	n := cfg.Nodes
	var l lowering
	switch alg {
	case AlgERing, AlgORing, AlgORingStriped:
		l.name = "ring"
		l.boxed, l.classed = bindN(n, collective.RingAllReduce), bindN(n, collective.RingAllReduceClassed)
		l.compact = bindN(n, collective.RingAllReduceCompact)
	case AlgRD:
		l.name = "rd"
		l.boxed, l.classed = bindN(n, collective.RecursiveDoubling), bindN(n, collective.RecursiveDoublingClassed)
	case AlgHD:
		l.name = "hd"
		l.boxed, l.classed = bindN(n, collective.HalvingDoubling), bindN(n, collective.HalvingDoublingClassed)
	case AlgBinomial:
		l.name = "binomial"
		l.boxed, l.classed = bindN(n, collective.BinomialTree), bindN(n, collective.BinomialTreeClassed)
	case AlgWrht, AlgWrhtUnstriped, AlgWrhtPipelined:
		plan, err := ss.plans.Plan(n, cfg.Optical.Wavelengths, wrhtOptions(cfg, alg))
		if err != nil {
			return lowering{}, err
		}
		l.plan = plan
		if alg == AlgWrhtPipelined {
			chunks := pipelineChunks(cfg)
			l.boxed = func(elems int) (*collective.Schedule, error) { return plan.PipelinedSchedule(elems, chunks) }
			l.classed = func(elems int) (*collective.ClassSchedule, error) { return plan.PipelinedClassSchedule(elems, chunks) }
		} else {
			l.boxed, l.classed, l.compact = plan.Schedule, plan.ClassSchedule, plan.CompactSchedule
		}
	default:
		return lowering{}, fmt.Errorf("wrht: unknown algorithm %q", alg)
	}
	return l, nil
}

// bindN fixes a baseline constructor's node count.
func bindN[T any](n int, f func(n, elems int) (T, error)) func(elems int) (T, error) {
	return func(elems int) (T, error) { return f(n, elems) }
}

// buildCompactSchedule constructs the columnar (per-transfer) schedule for
// alg — the form the message-level event simulator consumes
// (EventLevelTime); the caller owns the schedule, the session only supplies
// the plan. Rings and unpipelined Wrht plans are generated directly, without
// boxed per-transfer objects.
func (ss *SweepSession) buildCompactSchedule(cfg Config, alg Algorithm, elems int) (*collective.CompactSchedule, error) {
	l, err := ss.lower(cfg, alg)
	if err != nil {
		return nil, err
	}
	if l.compact != nil {
		return l.compact(elems)
	}
	s, err := l.boxed(elems)
	if err != nil {
		return nil, err
	}
	return s.Compact(), nil
}

// buildClassSchedule constructs the symmetry-aware classed schedule (and
// optional Wrht plan) for alg, together with the schedule's cache identity —
// the form the simulate fast path prices. Every algorithm emits straight
// into the classed builder, which certifies steps as they close. The
// schedule is cache-owned and must never be Released.
func (ss *SweepSession) buildClassSchedule(cfg Config, alg Algorithm, elems int) (*collective.ClassSchedule, *core.Plan, exp.ScheduleKey, error) {
	key := exp.ScheduleKey{N: cfg.Nodes, Elems: elems}
	l, err := ss.lower(cfg, alg)
	if err != nil {
		return nil, nil, key, err
	}
	key.Algorithm = l.name
	if l.plan != nil {
		key.Sig = l.plan.Sig()
		if alg == AlgWrhtPipelined {
			key.Chunks = pipelineChunks(cfg)
		}
	}
	build := func() (*collective.ClassSchedule, error) { return l.classed(elems) }
	if rec := ss.rec.Load(); rec != nil {
		// Wrap the build so certificate outcomes are recorded exactly once
		// per distinct schedule (cache hits re-serve the same build).
		inner := build
		build = func() (*collective.ClassSchedule, error) {
			cs, err := inner()
			if err == nil {
				cert, mat, dem := cs.CertStats()
				rec.Add("collective.schedules.built", 1)
				rec.Add("collective.steps.certified", int64(cert))
				rec.Add("collective.steps.materialized", int64(mat))
				rec.Add("collective.certificate.demotions", int64(dem))
			}
			return cs, err
		}
	}
	cls, err := ss.scheds.Schedule(key, build)
	if err != nil {
		return nil, nil, key, err
	}
	return cls, l.plan, key, nil
}

// bufferElems converts a buffer size to the schedule element count,
// rounding a partial element up.
func bufferElems(bytes int64, bytesPerElem int) (int, error) {
	if bytes <= 0 {
		return 0, fmt.Errorf("wrht: non-positive buffer size %d", bytes)
	}
	return int((bytes + int64(bytesPerElem) - 1) / int64(bytesPerElem)), nil
}

// isElectrical reports whether the algorithm runs on the electrical substrate.
func isElectrical(alg Algorithm) bool {
	switch alg {
	case AlgERing, AlgRD, AlgHD, AlgBinomial:
		return true
	default:
		return false
	}
}

// CommunicationTime simulates one all-reduce of `bytes` bytes under alg.
func CommunicationTime(cfg Config, alg Algorithm, bytes int64) (Result, error) {
	return NewSweepSession().CommunicationTime(cfg, alg, bytes)
}

// CommunicationTime is CommunicationTime sharing this session's caches.
func (ss *SweepSession) CommunicationTime(cfg Config, alg Algorithm, bytes int64) (Result, error) {
	return ss.CommunicationTimeContext(nil, cfg, alg, bytes)
}

// CommunicationTimeContext is CommunicationTime under a cancellation
// context. Single-point pricing is the service's cheap, bounded class, so
// the context is checked at the call boundary only.
func (ss *SweepSession) CommunicationTimeContext(ctx context.Context, cfg Config, alg Algorithm, bytes int64) (Result, error) {
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}
	res, _, err := ss.price(cfg, alg, bytes)
	return res, err
}

// price is CommunicationTime on the classed fast path — the schedule is
// built in symmetry-aware classed form and priced per equivalence class
// through the session's plan/schedule/simulation caches. It also returns
// the priced, cache-owned classed schedule so EnergyEstimate can account
// aggregate costs without building the schedule a second time.
func (ss *SweepSession) price(cfg Config, alg Algorithm, bytes int64) (Result, *collective.ClassSchedule, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, err
	}
	elems, err := bufferElems(bytes, cfg.BytesPerElem)
	if err != nil {
		return Result{}, nil, err
	}
	cls, plan, key, err := ss.buildClassSchedule(cfg, alg, elems)
	if err != nil {
		return Result{}, nil, err
	}
	out := Result{
		Algorithm:        alg,
		Steps:            cls.NumSteps(),
		PredictedSeconds: closedForm(cfg, alg, plan, int64(elems)*int64(cfg.BytesPerElem)),
	}

	// The substrate simulation is memoized by (schedule identity, options);
	// the electrical network is derived from the schedule.
	if isElectrical(alg) {
		opts := runner.ElectricalOptions{Params: cfg.Electrical, BytesPerElem: cfg.BytesPerElem}
		simKey := exp.SimKey{Sched: key, Electrical: true, ElecOpts: opts}
		res, err := ss.sims.Run(simKey, func() (runner.Result, error) {
			return runner.RunElectricalClassedObserved(cls, opts, ss.rec.Load(), ss.simProc(simKey))
		})
		if err != nil {
			return Result{}, nil, err
		}
		out.Substrate = res.Substrate
		out.Seconds = res.TotalSec
		return out, cls, nil
	}

	opts := opticalOptions(cfg, alg)
	simKey := exp.SimKey{Sched: key, OptOpts: opts}
	res, err := ss.sims.Run(simKey, func() (runner.Result, error) {
		return runner.RunOpticalClassedObserved(cls, opts, ss.rec.Load(), ss.simProc(simKey), ss.colorings)
	})
	if err != nil {
		return Result{}, nil, err
	}
	out.Substrate = res.Substrate
	out.Seconds = res.TotalSec
	out.MaxWavelengths = res.MaxWavelengths
	return out, cls, nil
}

// closedForm is the analytic all-reduce time of bytes under alg (model
// package); plan is the Wrht plan for the Wrht variants and ignored
// otherwise. The pipelined variant is priced through the documented
// round-splitting approximation in core.PredictPipelinedTime.
func closedForm(cfg Config, alg Algorithm, plan *core.Plan, bytes int64) float64 {
	switch alg {
	case AlgERing:
		return model.ERing(cfg.Nodes, bytes, cfg.Electrical)
	case AlgRD:
		return model.RD(cfg.Nodes, bytes, cfg.Electrical)
	case AlgHD:
		return model.HD(cfg.Nodes, bytes, cfg.Electrical)
	case AlgBinomial:
		return model.Binomial(cfg.Nodes, bytes, cfg.Electrical)
	case AlgORing:
		return model.ORing(cfg.Nodes, bytes, cfg.Optical)
	case AlgORingStriped:
		return model.ORingStriped(cfg.Nodes, bytes, cfg.Optical)
	case AlgWrhtPipelined:
		return model.WrhtPipelined(plan, bytes, cfg.Optical, pipelineChunks(cfg))
	default:
		return model.Wrht(plan, bytes, cfg.Optical)
	}
}

// opticalOptions is the substrate configuration an optical algorithm is
// priced under: First Fit, and full-budget stripes for striped O-Ring.
func opticalOptions(cfg Config, alg Algorithm) runner.OpticalOptions {
	opts := runner.DefaultOpticalOptions()
	opts.Params = cfg.Optical
	opts.BytesPerElem = cfg.BytesPerElem
	opts.Assigner = wdm.FirstFit
	if alg == AlgORingStriped {
		opts.DefaultWidth = cfg.Optical.Wavelengths
	}
	return opts
}

// Compare prices several algorithms on the same buffer, sharing one session
// so algorithms that lower to the same schedule (E-Ring and O-Ring both ride
// the ring schedule) build it once.
func Compare(cfg Config, algs []Algorithm, bytes int64) ([]Result, error) {
	return NewSweepSession().Compare(cfg, algs, bytes)
}

// Compare is Compare sharing this session's caches (and, when observed, its
// flight recorder).
func (ss *SweepSession) Compare(cfg Config, algs []Algorithm, bytes int64) ([]Result, error) {
	out := make([]Result, 0, len(algs))
	for _, a := range algs {
		r, err := ss.CommunicationTime(cfg, a, bytes)
		if err != nil {
			return nil, fmt.Errorf("wrht: %s: %w", a, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// VerifyAlgorithm executes the algorithm's schedule on real buffers with
// deterministic inputs and confirms every node ends with the exact
// elementwise sum — the correctness oracle behind every timing claim. Use a
// small elems (e.g. 64) at large node counts; cost is O(N² · elems) for
// tree/all-to-all schedules.
func VerifyAlgorithm(cfg Config, alg Algorithm, elems int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	l, err := NewSweepSession().lower(cfg, alg)
	if err != nil {
		return err
	}
	s, err := l.boxed(elems)
	if err != nil {
		return err
	}
	return collective.VerifyAllReduce(s)
}

// PlanSummary describes the Wrht plan the configuration produces.
type PlanSummary struct {
	GroupSize     int
	Steps         int
	TreeLevels    int
	A2AReps       int
	TreeStripe    int
	A2AStripe     int
	StepDemands   []int
	StepsUpperBnd int
	Description   string
}

// Plan returns the Wrht plan summary for the configuration.
func Plan(cfg Config) (PlanSummary, error) {
	if err := cfg.Validate(); err != nil {
		return PlanSummary{}, err
	}
	p, err := core.BuildPlan(cfg.Nodes, cfg.Optical.Wavelengths, wrhtOptions(cfg, AlgWrht))
	if err != nil {
		return PlanSummary{}, err
	}
	if err := p.CheckInvariants(); err != nil {
		return PlanSummary{}, err
	}
	return PlanSummary{
		GroupSize:     p.M,
		Steps:         p.NumSteps(),
		TreeLevels:    len(p.ReduceLevels),
		A2AReps:       len(p.A2AReps),
		TreeStripe:    p.TreeStripe,
		A2AStripe:     p.A2AStripe,
		StepDemands:   p.WavelengthDemands(),
		StepsUpperBnd: p.StepsUpperBound(),
		Description:   p.String(),
	}, nil
}

// IterationReport is a data-parallel training-iteration simulation outcome.
type IterationReport struct {
	Model             string
	Algorithm         Algorithm
	IterationSec      float64
	ComputeSec        float64
	CommSec           float64
	ExposedCommSec    float64
	CommShare         float64
	ScalingEfficiency float64
	Buckets           int
}

// TrainingIteration simulates one bucketed-overlap DDP iteration of the named
// catalog model with gradients all-reduced by alg (analytic comm model).
func TrainingIteration(cfg Config, alg Algorithm, modelName string, bucketCapBytes int64) (IterationReport, error) {
	if err := cfg.Validate(); err != nil {
		return IterationReport{}, err
	}
	m, err := dnn.ByName(modelName)
	if err != nil {
		return IterationReport{}, err
	}
	timer, err := NewSweepSession().commTimer(cfg, alg)
	if err != nil {
		return IterationReport{}, err
	}
	res, err := trace.SimulateIteration(m, trace.DefaultCompute(m), bucketCapBytes, cfg.BytesPerElem, timer)
	if err != nil {
		return IterationReport{}, err
	}
	return IterationReport{
		Model:             m.Name,
		Algorithm:         alg,
		IterationSec:      res.IterationSec,
		ComputeSec:        res.ComputeSec,
		CommSec:           res.CommSec,
		ExposedCommSec:    res.ExposedCommSec,
		CommShare:         res.CommShare,
		ScalingEfficiency: res.ScalingEfficiency,
		Buckets:           res.Buckets,
	}, nil
}

// commTimer builds an analytic per-bucket timer for the algorithm (fast
// enough to call once per bucket per iteration): the Wrht variants build
// their plan once, and every bucket is priced by closedForm.
func (ss *SweepSession) commTimer(cfg Config, alg Algorithm) (trace.CommTimer, error) {
	l, err := ss.lower(cfg, alg)
	if err != nil {
		return nil, err
	}
	if chunks := pipelineChunks(cfg); alg == AlgWrhtPipelined && chunks < 1 {
		// Mirror CommunicationTime, which rejects the same value in
		// PipelinedSchedule, instead of silently pricing unpipelined.
		return nil, fmt.Errorf("wrht: pipeline chunks %d", chunks)
	}
	return func(b int64) float64 { return closedForm(cfg, alg, l.plan, b) }, nil
}
