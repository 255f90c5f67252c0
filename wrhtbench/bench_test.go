package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"testing"
	"time"

	"wrht"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json (read by whoever runs
// the benchmark) and the metrics and workloads the code reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, code has %d", names, len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}

// TestRedriveLedgerAddsUp re-drives a small grid through the real pricing
// layers and checks that every layer shows up and the ledger adds up.
func TestRedriveLedgerAddsUp(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(0, "", "test")
	r := newRedrive(tr, root)
	err := r.spec(wrht.SweepSpec{
		Nodes: []int{40}, Wavelengths: []int{8}, Models: []string{"ResNet50"}, Algorithms: wrht.Algorithms(),
	})
	tr.End(root)
	if err != nil {
		t.Fatal(err)
	}
	l := tr.Ledger(root)
	total := l.Shadow + l.Unattributed
	var layers []string
	for name, st := range l.Layers {
		total += st.Self
		layers = append(layers, name)
	}
	sort.Strings(layers)
	want := []string{"collective", "core", "electrical", "optical", "runner", "wdm"}
	if len(layers) != len(want) {
		t.Fatalf("layers %v, want %v", layers, want)
	}
	for i := range want {
		if layers[i] != want[i] {
			t.Fatalf("layers %v, want %v", layers, want)
		}
	}
	if math.Abs(total-l.Wall) > 1e-9 {
		t.Errorf("self + shadow + unattributed = %v, wall %v", total, l.Wall)
	}
	if r.c.steps == 0 || r.c.demands == 0 || r.c.plansBuilt == 0 {
		t.Errorf("counters not filled: %+v", r.c)
	}
}

// TestServeLoops drives a small open loop and closed loop against an
// in-process server, with the handler timed and traced, and checks the
// served prices against direct calls.
func TestServeLoops(t *testing.T) {
	s, d, err := serveSetup(7, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	ticks, keep := openTicks(7, d, 300*time.Millisecond)
	openLoop(s, ticks, keep)
	for i, tk := range ticks {
		if tk.unsent || tk.err || tk.status != http.StatusOK {
			t.Errorf("tick %d: unsent %v err %v status %d", i, tk.unsent, tk.err, tk.status)
		}
		if tk.done < tk.sent || tk.sent < 0 {
			t.Errorf("tick %d: sent %v done %v", i, tk.sent, tk.done)
		}
	}
	if ok, _ := closedLoop(s, newMixDrawer(7, 9), 200); ok != 200 {
		t.Errorf("closed loop: %d of 200 ok", ok)
	}
	checked, bad, err := checkServed(ticks, keep, newDigest())
	if err != nil || bad != 0 || checked == 0 {
		t.Errorf("checked %d, bad %d, err %v", checked, bad, err)
	}
	o := &outcome{Named: map[string]float64{}}
	var lag []float64
	for _, tk := range ticks {
		lag = append(lag, (tk.sent - tk.due).Seconds())
	}
	if err := traceServe(s, ticks[:20], lag, lag, o); err != nil {
		t.Fatal(err)
	}
	if o.Layers["serve.calls"] != 20 || o.Layers["transport.calls"] != 20 {
		t.Errorf("traced pass: %v serve spans, %v transport spans, want 20", o.Layers["serve.calls"], o.Layers["transport.calls"])
	}
}
