package main

import (
	"math"
	"testing"
	"time"
)

// stubStack mimics the design-sweep re-drive on stub layers: an outer
// "runner" call that internally does optical work that internally does wdm
// work, followed by shadow calls re-executing optical and wdm on their own.
func stubStack(tr *Tracer, parent int, runnerWork, opticalWork, wdmWork time.Duration) {
	wdm := func() { spin(wdmWork) }
	optical := func() { spin(opticalWork); wdm() }
	runner := func() { spin(runnerWork); optical() }

	r := tr.Begin(parent, "runner", "runner.Run")
	runner()
	tr.End(r)
	o := tr.Shadow(r, "optical", "optical.Price")
	optical()
	tr.End(o)
	w := tr.Shadow(o, "wdm", "wdm.Rounds")
	wdm()
	tr.End(w)
}

// spin busy-waits so the stub's cost is CPU time, like a real layer.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func ledgerOf(wdmWork time.Duration) Ledger {
	tr := NewTracer()
	root := tr.Begin(0, "", "pass")
	for i := 0; i < 5; i++ {
		stubStack(tr, root, 2*time.Millisecond, 2*time.Millisecond, wdmWork)
	}
	tr.End(root)
	return tr.Ledger(root)
}

func TestLedgerAddsUpToWall(t *testing.T) {
	l := ledgerOf(time.Millisecond)
	sum := l.Shadow + l.Unattributed
	for _, st := range l.Layers {
		sum += st.Self
	}
	if math.Abs(sum-l.Wall) > 1e-9 {
		t.Fatalf("self + shadow + unattributed = %v, wall %v", sum, l.Wall)
	}
	for _, name := range []string{"runner", "optical", "wdm"} {
		if got := l.Layers[name].Calls; got != 5 {
			t.Errorf("%s calls = %d, want 5", name, got)
		}
	}
}

// TestPlantedDelayLandsInLayerSelf plants a delay in the innermost stub
// layer, reachable only inside the other two, and checks it shows up in
// that layer's self time while the outer layers' self times and the
// unattributed residual stay put.
func TestPlantedDelayLandsInLayerSelf(t *testing.T) {
	const planted = 4 * time.Millisecond
	base := ledgerOf(time.Millisecond)
	slow := ledgerOf(time.Millisecond + planted)

	want := 5 * planted.Seconds()
	grew := slow.Layers["wdm"].Self - base.Layers["wdm"].Self
	if grew < 0.8*want || grew > 1.5*want {
		t.Errorf("wdm self grew by %.4fs, want about %.4fs", grew, want)
	}
	for _, name := range []string{"runner", "optical"} {
		if d := slow.Layers[name].Self - base.Layers[name].Self; math.Abs(d) > 0.25*want {
			t.Errorf("%s self moved by %.4fs on a wdm delay", name, d)
		}
	}
	if d := slow.Unattributed - base.Unattributed; math.Abs(d) > 0.25*want {
		t.Errorf("unattributed moved by %.4fs on a wdm delay", d)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(0, "x", "y")
	tr.End(id)
	if id != 0 || tr.Shadow(id, "x", "y") != 0 {
		t.Fatal("nil tracer opened a span")
	}
}
