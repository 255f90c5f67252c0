// Command wrhtbench is the repository benchmark: four seeded workloads that
// drive the public entry points (package wrht and internal/serve), check
// their outputs, and print end-to-end metrics, or, with --trace 1, a
// per-layer breakdown from spans the benchmark records around its own calls
// into each layer. Build and run it from the repository root with
//
//	bash wrhtbench/run.sh --workload design-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A fuller report (environment,
// digest of the simulated outputs, every metric the workload defines) and,
// in trace mode, the span file are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed a run uses when --seed is not given.
const defaultSeed = 20230225

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 5

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
}

// deadline is the end of the measured window that starts now.
func (c runConfig) deadline() time.Time {
	return time.Now().Add(time.Duration(c.Seconds * float64(time.Second)))
}

// outcome is what a workload measured.
type outcome struct {
	Attempted, Failed int
	// Setup holds one duration per set-up repetition, in seconds.
	Setup []float64
	// Items is work completed per second; P50 the workload's median
	// operation latency in milliseconds.
	Items, P50 float64
	// Named are the workload's own end-to-end metrics under the names the
	// workload defines (cells_per_s, error_frac, ...), for the report.
	Named map[string]float64
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64
	// Ledger is the traced pass's time split, for the report.
	Ledger *Ledger
	// Digest hashes the simulated outputs of the seed's fixed inputs.
	Digest string
	Tracer *Tracer
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"design-sweep": runDesignSweep,
	"fleet-trace":  runFleetTrace,
	"serve-mixed":  runServeMixed,
	"event-level":  runEventLevel,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: design-sweep, fleet-trace, serve-mixed or event-level")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for the report and span files")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "wrhtbench: bad flags (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wrhtbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := finish(*name, cfg, o, *out); err != nil {
		fmt.Fprintf(os.Stderr, "wrhtbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// finish prints the human-readable metrics, writes the report (and span
// file), and prints the result line.
func finish(name string, cfg runConfig, o *outcome, outDir string) error {
	o.Named["setup_s"] = median(o.Setup)
	o.Named["peak_rss_mb"] = peakRSSMB()
	o.Named["error_frac"] = frac(float64(o.Failed), float64(o.Attempted))

	metrics := map[string]metricValue{}
	if cfg.Trace {
		for _, m := range perLayerMetrics {
			metrics[m.Name] = metricValue{o.Layers[m.Name], m.Unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":     o.Named["setup_s"],
			"items_per_s": o.Items,
			"p50_ms":      o.P50,
			"peak_rss_mb": o.Named["peak_rss_mb"],
		}
		for _, m := range endToEndMetrics {
			metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
	}
	for _, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("non-finite metric in %v", metrics)
		}
	}

	printSorted(name, "", o.Named)
	if cfg.Trace {
		printSorted(name, "layer ", o.Layers)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	mode := "trace0"
	if cfg.Trace {
		mode = "trace1"
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s", name, cfg.Seed, mode))
	report := map[string]any{
		"workload": name, "env": currentEnv(cfg.Seed), "seconds": cfg.Seconds,
		"attempted": o.Attempted, "failed": o.Failed, "setup_runs_s": o.Setup,
		"metrics": metrics, "workload_metrics": o.Named, "digest": o.Digest,
	}
	if cfg.Trace {
		report["layers"] = o.Layers
		report["ledger"] = o.Ledger
		if err := o.Tracer.WriteFile(stem + ".spans.json"); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".report.json", data, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s digest %s\n", name, o.Digest)

	line, err := json.Marshal(map[string]any{
		"correct": o.Failed == 0, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printSorted(workload, prefix string, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %s%s %.6g %s\n", workload, prefix, k, m[k], unitOf(k))
	}
}
