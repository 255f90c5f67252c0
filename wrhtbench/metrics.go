package main

import (
	"strings"

	"wrht"
)

type metricDef struct{ Name, Unit string }

// endToEndMetrics are what a user of the system sees; every workload
// reports each of them (BENCHMARK.json end_to_end lists the same names).
// items_per_s is the workload's unit of work per second: sweep cells
// (design-sweep), trace jobs per host second (fleet-trace), fully priced
// points (event-level) and closed-loop 200s (serve-mixed). p50_ms is the
// median latency of the workload's operation: open-loop requests timed from
// their due time (serve-mixed), points (event-level), design studies
// (design-sweep) and trace replays (fleet-trace). The open loop's p99 is
// reported by the traced run (serve.p99_ms) rather than bounded here: on a
// two-core host its run-to-run spread exceeds any bound a gate may use.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are what a traced run reports (BENCHMARK.json per_layer
// lists the same names). A workload reports 0 for layers it does not drive.
var perLayerMetrics = func() []metricDef {
	names := []string{
		"trace.wall_s", "trace.untraced_s", "trace.overhead_s", "trace.shadow_s", "unattributed_s",
		"wrht.self_s",

		"core.calls", "core.busy_s", "core.plans_built",
		"collective.calls", "collective.busy_s", "collective.steps", "collective.certified_frac", "collective.demoted",
		"runner.calls", "runner.busy_s", "runner.self_s",
		"optical.calls", "optical.busy_s", "optical.transfers", "optical.symmetric_frac",
		"wdm.calls", "wdm.busy_s", "wdm.demands",
		"electrical.calls", "electrical.busy_s",
		"exp.plan_hit_frac", "exp.sched_hit_frac", "exp.sim_hit_frac",

		"fleet.busy_s", "fleet.migrations",
		"sim.events", "sim.ns_per_event",
		"fabric.solves", "fabric.tiers_skipped_frac", "fabric.jobs_repriced", "fabric.curve_hits", "fabric.curve_builds",
		"faults.retries", "faults.evictions", "faults.outages", "faults.job_faults",
		"fleet.makespan_s", "fleet.mean_slowdown", "fleet.utilization", "fleet.availability",

		"serve.handler_p50_ms", "serve.handler_p99_ms", "serve.handler_busy_s", "serve.transport_p50_ms",
		"serve.warm_p50_ms", "serve.cold_p50_ms", "serve.cold_p99_ms",
		"serve.coalesced", "serve.shed", "serve.deadline_exceeded",
		"serve.gen_lag_p99_ms", "serve.unsent", "serve.p99_ms",

		"collective.compact_busy_s",
		"opticalsim.calls", "opticalsim.busy_s", "opticalsim.events", "opticalsim.ns_per_event", "opticalsim.step_model_mismatch",
		"energy.busy_s", "multiring.busy_s",
	}
	for _, alg := range wrht.Algorithms() {
		names = append(names, "model.disagree."+string(alg))
	}
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{n, unitOf(n)}
	}
	return out
}()

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"), strings.HasSuffix(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "utilization"), strings.HasSuffix(name, "availability"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "mean_slowdown"):
		return "x"
	}
	return "count"
}
