package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark makes into a layer's public function.
// Parent is the span that caused it (0 for none). A shadow span re-executes,
// on the same inputs, work that an earlier span (Of) already did inside a
// deeper layer the benchmark cannot reach through that span's call: Of's
// self time excludes the shadow's busy time, and the shadow's own wall time
// is accounted as re-execution, not as any layer's work.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Of      int    `json:"of,omitempty"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until WriteFile. A nil *Tracer is the
// untraced mode: every method is a no-op returning span id 0. Safe for
// concurrent use.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose span times are offsets from now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) open(parent, of int, layer, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Of: of, Layer: layer, Name: name, StartNs: now, EndNs: -1})
	return id
}

// Begin opens a span under parent.
func (t *Tracer) Begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	return t.open(parent, 0, layer, name)
}

// Shadow opens a shadow span re-executing part of span of's work; it sits
// beside of under of's parent.
func (t *Tracer) Shadow(of int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	parent := t.spans[of-1].Parent
	t.mu.Unlock()
	return t.open(parent, of, layer, name)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes every span as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(map[string]any{"spans": t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LayerStat is one layer's share of a traced pass.
type LayerStat struct {
	Calls int
	// Busy is the summed duration of the layer's spans; Self is Busy minus
	// the time of its child spans and of the shadow spans re-executing its
	// inner layers.
	Busy, Self float64
}

// Ledger splits a traced pass's wall time: the layers' self times, plus
// Shadow (time spent re-executing inner layers), plus Unattributed (time
// inside the pass no span covers) add up to Wall.
type Ledger struct {
	Wall, Shadow, Unattributed float64
	Layers                     map[string]*LayerStat
}

// Ledger accounts the subtree of root, a span left open by no one. Every
// other span of the subtree must be closed, and spans of one layer must not
// nest inside each other.
func (t *Tracer) Ledger(root int) Ledger {
	spans := t.Spans()
	busy := func(s Span) float64 { return float64(s.EndNs-s.StartNs) / 1e9 }
	inTree := make([]bool, len(spans)+1)
	inTree[root] = true
	sub := make([]float64, len(spans)+1)
	// Span ids grow with start time and a child or shadow always opens after
	// the span it hangs on, so one forward pass sees parents first.
	for _, s := range spans {
		if s.ID == root || !inTree[s.Parent] {
			continue
		}
		inTree[s.ID] = true
		sub[s.Parent] += busy(s)
		if s.Of != 0 {
			sub[s.Of] += busy(s)
		}
	}
	l := Ledger{Wall: busy(spans[root-1]), Layers: map[string]*LayerStat{}}
	covered := 0.0
	for _, s := range spans {
		if s.ID == root || !inTree[s.ID] {
			continue
		}
		st := l.Layers[s.Layer]
		if st == nil {
			st = &LayerStat{}
			l.Layers[s.Layer] = st
		}
		st.Calls++
		st.Busy += busy(s)
		st.Self += busy(s) - sub[s.ID]
		if s.Of != 0 {
			l.Shadow += busy(s)
		}
		if s.Parent == root {
			covered += busy(s)
		}
	}
	l.Unattributed = l.Wall - covered
	return l
}

// LayerNames returns the ledger's layers in sorted order.
func (l Ledger) LayerNames() []string {
	names := make([]string, 0, len(l.Layers))
	for n := range l.Layers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
