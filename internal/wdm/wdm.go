// Package wdm implements routing-and-wavelength-assignment (RWA) for
// transfers on a WDM optical ring.
//
// A Demand is a directed ring arc plus a stripe width (how many wavelengths
// the transfer uses in parallel). Two demands conflict when their arcs share
// a directed link; conflicting demands must receive disjoint wavelength sets.
// Demands whose arcs are link-disjoint may reuse the same wavelengths — this
// spatial reuse is what the Wrht paper's "wavelength reused" tree exploits.
//
// The package provides the First Fit and Best Fit heuristics referenced by
// the paper, an exact optimal search for small instances (used to validate
// the heuristics), a greedy splitter that breaks an over-subscribed step into
// sequential rounds, and the Liang–Shen ⌈r²/8⌉ bound for single-step
// all-to-all on a ring.
package wdm

import (
	"fmt"
	"sort"

	"wrht/internal/ring"
)

// Demand is a request for Width wavelengths along Arc.
type Demand struct {
	Arc   ring.Arc
	Width int
}

// Policy selects the wavelength-assignment heuristic.
type Policy int

const (
	// FirstFit assigns the lowest-indexed wavelengths that are free on every
	// link of the arc.
	FirstFit Policy = iota
	// BestFit prefers, among feasible wavelengths, those already carrying the
	// most traffic elsewhere on the ring (packing), falling back to index
	// order on ties.
	BestFit
)

func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Order selects the order in which demands are considered.
type Order int

const (
	// AsGiven keeps the caller's order.
	AsGiven Order = iota
	// LongestFirst sorts demands by descending hop count (classic RWA
	// heuristic: long arcs are hardest to place).
	LongestFirst
)

func (o Order) String() string {
	switch o {
	case AsGiven:
		return "as-given"
	case LongestFirst:
		return "longest-first"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Assignment is the result of wavelength assignment. Stripes[i] lists the
// wavelengths given to demands[i], in ascending order; NumColors is the
// total number of distinct wavelengths used (max index + 1). The stripes of
// one assignment may share a single backing array; callers must treat them
// as read-only.
type Assignment struct {
	Stripes   [][]int
	NumColors int
}

// Workspace holds the reusable scratch state of repeated assignment calls:
// the per-(color, link) occupancy table, the BestFit candidate buffer, and
// the link/order buffers. One Workspace serves any number of sequential
// Assign/Rounds calls on the same topology with zero steady-state
// allocation beyond the result slices; it is not safe for concurrent use.
type Workspace struct {
	topo     ring.Topology
	numLinks int
	// colors is the occupancy high-water mark: the number of distinct colors
	// ever probed since the last reset (mirrors the length of the historical
	// per-color table, which BestFit's candidate range depends on).
	colors int
	// busy is the flat (color, link) table: busy[c*numLinks+l] == epoch means
	// color c is occupied on link l in the current round. Bumping epoch
	// clears the whole table in O(1).
	epoch uint32
	busy  []uint32
	// usage[c] counts demands on color c in the current round (BestFit).
	usage []int
	// inStripe[c] marks colors already chosen for the stripe being placed —
	// the boolean-slice replacement for the historical linear contains scan.
	inStripe []bool
	links    []int // current demand's link indices
	idx      []int // order buffer
	cands    []bfCand

	// RoundsReused result arenas (valid until the next RoundsReused call).
	stripeArena  []int
	demArena     []int
	stripesArena [][]int
	rounds       []Round
}

type bfCand struct{ c, usage int }

// NewWorkspace returns an empty workspace for the topology.
func NewWorkspace(t ring.Topology) *Workspace {
	return &Workspace{topo: t, numLinks: t.NumLinks(), epoch: 1}
}

// reset clears the occupancy state (a fresh round) while keeping capacity.
//
//wrht:noalloc
func (ws *Workspace) reset() {
	ws.epoch++
	if ws.epoch == 0 { // wrapped: the stale marks are indistinguishable, clear
		for i := range ws.busy {
			ws.busy[i] = 0
		}
		ws.epoch = 1
	}
	for c := 0; c < ws.colors; c++ {
		ws.usage[c] = 0
	}
	ws.colors = 0
}

// ensure grows the tables to cover color c.
func (ws *Workspace) ensure(c int) {
	if c < ws.colors {
		return
	}
	for need := (c + 1) * ws.numLinks; len(ws.busy) < need; {
		ws.busy = append(ws.busy, 0)
	}
	for len(ws.usage) <= c {
		ws.usage = append(ws.usage, 0)
		ws.inStripe = append(ws.inStripe, false)
	}
	// Colors in [old colors, c] start this round untouched; their usage may
	// hold counts from an earlier round and must be cleared.
	for i := ws.colors; i <= c; i++ {
		ws.usage[i] = 0
	}
	ws.colors = c + 1
}

// feasible reports whether color c is free on every link of the arc.
//
//wrht:noalloc
func (ws *Workspace) feasible(c int, links []int) bool {
	ws.ensure(c)
	row := ws.busy[c*ws.numLinks:]
	for _, l := range links {
		if row[l] == ws.epoch {
			return false
		}
	}
	return true
}

//wrht:noalloc
func (ws *Workspace) take(c int, links []int) {
	ws.ensure(c)
	row := ws.busy[c*ws.numLinks:]
	for _, l := range links {
		row[l] = ws.epoch
	}
	ws.usage[c]++
}

// demandLinks resolves the demand's arc into ws.links (reused across calls).
//
//wrht:noalloc
func (ws *Workspace) demandLinks(a ring.Arc) ([]int, error) {
	if a.Src == a.Dst {
		return nil, fmt.Errorf("wdm: arc %v has zero length", a)
	}
	if !ws.topo.Contains(a.Src) || !ws.topo.Contains(a.Dst) {
		return nil, fmt.Errorf("wdm: arc %v out of range for N=%d", a, ws.topo.N())
	}
	ws.links = ws.topo.AppendArcLinks(a, ws.links[:0])
	return ws.links, nil
}

func arcLinks(t ring.Topology, a ring.Arc) ([]int, error) {
	if a.Src == a.Dst {
		return nil, fmt.Errorf("wdm: arc %v has zero length", a)
	}
	if !t.Contains(a.Src) || !t.Contains(a.Dst) {
		return nil, fmt.Errorf("wdm: arc %v out of range for N=%d", a, t.N())
	}
	return t.AppendArcLinks(a, make([]int, 0, t.Hops(a))), nil
}

// Assign colors every demand with Width wavelengths under the given policy
// and ordering, with no limit on the number of wavelengths. Use Rounds to
// respect a hardware wavelength budget.
func Assign(t ring.Topology, demands []Demand, policy Policy, order Order) (Assignment, error) {
	return NewWorkspace(t).Assign(demands, policy, order)
}

// Assign is the package-level Assign running on this workspace's scratch.
func (ws *Workspace) Assign(demands []Demand, policy Policy, order Order) (Assignment, error) {
	idx, err := ws.orderIndices(demands, order)
	if err != nil {
		return Assignment{}, err
	}
	ws.reset()
	stripes := make([][]int, len(demands))
	arena := make([]int, 0, totalWidth(demands))
	for _, di := range idx {
		d := demands[di]
		links, err := ws.demandLinks(d.Arc)
		if err != nil {
			return Assignment{}, err
		}
		if d.Width < 1 {
			return Assignment{}, fmt.Errorf("wdm: demand %v has width %d", d.Arc, d.Width)
		}
		var stripe []int
		arena, stripe, err = ws.place(links, d.Width, policy, -1, arena)
		if err != nil {
			return Assignment{}, err
		}
		stripes[di] = stripe
	}
	return Assignment{Stripes: stripes, NumColors: maxColor(stripes) + 1}, nil
}

// totalWidth sums demand widths (the stripe arena capacity; negative widths
// are rejected later by place, so clamp them out of the sum).
func totalWidth(demands []Demand) int {
	n := 0
	for _, d := range demands {
		if d.Width > 0 {
			n += d.Width
		}
	}
	return n
}

// maxColor returns the highest color index used by any stripe, or -1.
func maxColor(stripes [][]int) int {
	max := -1
	for _, st := range stripes {
		for _, c := range st {
			if c > max {
				max = c
			}
		}
	}
	return max
}

// place finds width feasible colors for the given links under policy,
// appending them to arena and returning the grown arena plus the stripe (a
// view into arena; on error the arena is returned unchanged). If limit >= 0,
// only colors < limit may be used; errNoFit means the demand cannot fit.
func (ws *Workspace) place(links []int, width int, policy Policy, limit int, arena []int) ([]int, []int, error) {
	start := len(arena)
	switch policy {
	case FirstFit:
		for c := 0; len(arena)-start < width; c++ {
			if limit >= 0 && c >= limit {
				// Unwind the partial stripe before reporting no-fit.
				for _, cc := range arena[start:] {
					ws.inStripe[cc] = false
				}
				return arena[:start], nil, errNoFit
			}
			if ws.feasible(c, links) && !ws.inStripe[c] {
				ws.inStripe[c] = true
				arena = append(arena, c)
			}
		}
	case BestFit:
		// Gather all feasible colors in the allowed range plus enough fresh
		// colors, then pick the most-used ones.
		max := ws.colors + width
		if limit >= 0 {
			max = limit
		}
		cands := ws.cands[:0]
		for c := 0; c < max; c++ {
			if ws.feasible(c, links) {
				cands = append(cands, bfCand{c, ws.usage[c]})
			}
		}
		ws.cands = cands
		if len(cands) < width {
			return arena[:start], nil, errNoFit
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].usage != cands[j].usage {
				return cands[i].usage > cands[j].usage
			}
			return cands[i].c < cands[j].c
		})
		for i := 0; i < width; i++ {
			arena = append(arena, cands[i].c)
		}
		sort.Ints(arena[start:])
	default:
		return arena[:start], nil, fmt.Errorf("wdm: unknown policy %v", policy)
	}
	stripe := arena[start:len(arena):len(arena)]
	for _, c := range stripe {
		ws.inStripe[c] = false // clear the membership marks for the next stripe
		ws.take(c, links)
	}
	return arena, stripe, nil
}

var errNoFit = fmt.Errorf("wdm: demand does not fit in wavelength budget")

func (ws *Workspace) orderIndices(demands []Demand, order Order) ([]int, error) {
	idx := ws.idx[:0]
	for i := range demands {
		idx = append(idx, i)
	}
	ws.idx = idx
	switch order {
	case AsGiven:
	case LongestFirst:
		sort.SliceStable(idx, func(a, b int) bool {
			return ws.topo.Hops(demands[idx[a]].Arc) > ws.topo.Hops(demands[idx[b]].Arc)
		})
	default:
		return nil, fmt.Errorf("wdm: unknown order %v", order)
	}
	return idx, nil
}

// Round is one sequential sub-round of a step: the demands (by index into the
// original slice) that can be carried simultaneously within the wavelength
// budget, plus their assignment.
type Round struct {
	Demands    []int
	Assignment Assignment
}

// Rounds splits demands into sequential rounds such that each round's
// assignment uses at most w wavelengths. Demands are considered in the given
// order; a demand that does not fit in the open round closes it and starts a
// new one. A demand whose Width alone exceeds w is an error.
func Rounds(t ring.Topology, demands []Demand, w int, policy Policy, order Order) ([]Round, error) {
	return NewWorkspace(t).Rounds(demands, w, policy, order)
}

// Rounds is the package-level Rounds running on this workspace's scratch.
// Result storage is freshly allocated (one backing array per call for the
// stripes, demand indices, and rounds) and stays valid across later
// workspace reuse.
func (ws *Workspace) Rounds(demands []Demand, w int, policy Policy, order Order) ([]Round, error) {
	return ws.roundsImpl(demands, w, policy, order, false)
}

// RoundsReused is Rounds with every piece of result storage owned by the
// workspace: the returned rounds, their Demands index slices, and their
// stripes are all views into reusable arenas, valid only until the next
// Rounds/RoundsReused call. It is the allocation-free form multi-step
// pricers use (optical.StepPricer prices thousands of ring steps per
// schedule); use Rounds when the result must outlive the workspace's next
// call.
func (ws *Workspace) RoundsReused(demands []Demand, w int, policy Policy, order Order) ([]Round, error) {
	return ws.roundsImpl(demands, w, policy, order, true)
}

// roundsImpl is the single round-splitting loop behind Rounds and
// RoundsReused; `reuse` selects workspace-owned arenas versus fresh
// allocations for the result storage. The arenas are pre-sized so appends
// never reallocate mid-run (the returned views alias them).
func (ws *Workspace) roundsImpl(demands []Demand, w int, policy Policy, order Order, reuse bool) ([]Round, error) {
	if w < 1 {
		return nil, fmt.Errorf("wdm: wavelength budget %d", w)
	}
	idx, err := ws.orderIndices(demands, order)
	if err != nil {
		return nil, err
	}
	var (
		arena        []int
		demArena     []int
		stripesArena [][]int
		rounds       []Round
	)
	if reuse {
		if cap(ws.stripeArena) < totalWidth(demands) {
			ws.stripeArena = make([]int, 0, totalWidth(demands))
		}
		if cap(ws.demArena) < len(demands) {
			ws.demArena = make([]int, 0, len(demands))
		}
		if cap(ws.stripesArena) < len(demands) {
			ws.stripesArena = make([][]int, 0, len(demands))
		}
		arena = ws.stripeArena[:0]
		demArena = ws.demArena[:0]
		stripesArena = ws.stripesArena[:0]
		rounds = ws.rounds[:0]
	} else {
		arena = make([]int, 0, totalWidth(demands))
		demArena = make([]int, 0, len(demands))
		stripesArena = make([][]int, 0, len(demands))
	}
	open := false
	demLo, strLo := 0, 0
	flush := func() {
		if !open {
			return
		}
		curIdx := demArena[demLo:len(demArena):len(demArena)]
		curStripes := stripesArena[strLo:len(stripesArena):len(stripesArena)]
		rounds = append(rounds, Round{
			Demands:    curIdx,
			Assignment: Assignment{Stripes: curStripes, NumColors: maxColor(curStripes) + 1},
		})
		open = false
		demLo, strLo = len(demArena), len(stripesArena)
	}
	for _, di := range idx {
		d := demands[di]
		if d.Width < 1 {
			return nil, fmt.Errorf("wdm: demand %v has width %d", d.Arc, d.Width)
		}
		if d.Width > w {
			return nil, fmt.Errorf("wdm: demand %v width %d exceeds budget %d", d.Arc, d.Width, w)
		}
		links, err := ws.demandLinks(d.Arc)
		if err != nil {
			return nil, err
		}
		if !open {
			ws.reset()
			open = true
		}
		var stripe []int
		arena, stripe, err = ws.place(links, d.Width, policy, w, arena)
		if err == errNoFit {
			flush()
			ws.reset()
			open = true
			arena, stripe, err = ws.place(links, d.Width, policy, w, arena)
		}
		if err != nil {
			return nil, err
		}
		demArena = append(demArena, di)
		stripesArena = append(stripesArena, stripe)
	}
	flush()
	if reuse {
		ws.stripeArena, ws.demArena, ws.stripesArena, ws.rounds = arena, demArena, stripesArena, rounds
	}
	return rounds, nil
}

// SymmetricAssigner solves rotationally-symmetric demand sets by their
// representative orbit: a step whose demands are one orbit replicated
// block-major at a fixed node stride, with replicas pairwise link-disjoint
// (the certificate collective.ClassSchedule carries), receives — under First
// Fit in given order — exactly the orbit's coloring in every block. Solving
// the orbit alone therefore yields the full step's round structure and color
// count. Solutions are memoized in a private ColoringCache, so the 2(N-1)
// identical steps of a ring schedule are assigned once.
type SymmetricAssigner struct {
	ws    *Workspace
	cache *ColoringCache
}

// NewSymmetricAssigner returns an assigner for the topology.
func NewSymmetricAssigner(t ring.Topology) *SymmetricAssigner {
	return &SymmetricAssigner{ws: NewWorkspace(t), cache: NewColoringCache()}
}

// SingleRoundColors assigns the orbit demands under First Fit (as-given
// order) within budget w and returns the number of distinct colors used.
// ok=false means the orbit alone does not fit in a single round, in which
// case symmetric pricing does not apply and the caller must fall back to the
// materialized path. Widths must already be clamped to [1, w].
func (sa *SymmetricAssigner) SingleRoundColors(orbit []Demand, w int) (colors int, ok bool, err error) {
	return sa.cache.SingleRoundColors(sa.ws, orbit, w)
}

// Validate checks that asg is a proper wavelength assignment for demands:
// every demand received exactly Width distinct colors, and no two demands
// sharing a directed link share a color.
func Validate(t ring.Topology, demands []Demand, asg Assignment) error {
	if len(asg.Stripes) != len(demands) {
		return fmt.Errorf("wdm: %d stripes for %d demands", len(asg.Stripes), len(demands))
	}
	// owner[link][color] = demand index + 1
	owner := make(map[[2]int]int)
	for i, d := range demands {
		stripe := asg.Stripes[i]
		if len(stripe) != d.Width {
			return fmt.Errorf("wdm: demand %d got %d colors, want %d", i, len(stripe), d.Width)
		}
		seen := make(map[int]bool)
		links, err := arcLinks(t, d.Arc)
		if err != nil {
			return err
		}
		for _, c := range stripe {
			if c < 0 || c >= asg.NumColors {
				return fmt.Errorf("wdm: demand %d color %d outside [0,%d)", i, c, asg.NumColors)
			}
			if seen[c] {
				return fmt.Errorf("wdm: demand %d repeats color %d", i, c)
			}
			seen[c] = true
			for _, l := range links {
				key := [2]int{l, c}
				if prev, ok := owner[key]; ok {
					return fmt.Errorf("wdm: demands %d and %d both use wavelength %d on link %d",
						prev-1, i, c, l)
				}
				owner[key] = i + 1
			}
		}
	}
	return nil
}

// MaxLinkLoad returns the maximum, over directed links, of the total demand
// width crossing the link. It is a lower bound on the number of wavelengths
// any assignment needs.
func MaxLinkLoad(t ring.Topology, demands []Demand) (int, error) {
	load := make([]int, t.NumLinks())
	for _, d := range demands {
		links, err := arcLinks(t, d.Arc)
		if err != nil {
			return 0, err
		}
		for _, l := range links {
			load[l] += d.Width
		}
	}
	max := 0
	for _, v := range load {
		if v > max {
			max = v
		}
	}
	return max, nil
}

// AllToAllDemands builds the demand set for a single-step all-to-all among
// the given nodes: one transfer per ordered pair, routed along the shortest
// ring direction, each of the given stripe width. Antipodal ties alternate
// CW/CCW by source index so the two waveguides carry equal load.
func AllToAllDemands(t ring.Topology, nodes []int, width int) []Demand {
	var out []Demand
	for si, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			cw, ccw := t.Dist(src, dst, ring.CW), t.Dist(src, dst, ring.CCW)
			dir := ring.CW
			switch {
			case ccw < cw:
				dir = ring.CCW
			case ccw == cw && si%2 == 1:
				dir = ring.CCW
			}
			out = append(out, Demand{Arc: ring.Arc{Src: src, Dst: dst, Dir: dir}, Width: width})
		}
	}
	return out
}

// AllToAllDemandsBalanced is AllToAllDemands with load-aware routing: pairs
// are routed (longest span first) in whichever direction currently yields the
// smaller maximum link load. This approximates the routing Liang & Shen use
// to reach the ⌈r²/8⌉ wavelength requirement.
func AllToAllDemandsBalanced(t ring.Topology, nodes []int, width int) []Demand {
	type pair struct{ src, dst, span int }
	var pairs []pair
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			span := t.Dist(src, dst, ring.CW)
			if c := t.Dist(src, dst, ring.CCW); c < span {
				span = c
			}
			pairs = append(pairs, pair{src, dst, span})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].span > pairs[j].span })
	load := make([]int, t.NumLinks())
	peak := func(a ring.Arc) int {
		m := 0
		t.VisitLinks(a, func(l int) {
			if load[l] > m {
				m = load[l]
			}
		})
		return m
	}
	demands := make(map[[2]int]Demand, len(pairs))
	for _, p := range pairs {
		cwArc := ring.Arc{Src: p.src, Dst: p.dst, Dir: ring.CW}
		ccwArc := ring.Arc{Src: p.src, Dst: p.dst, Dir: ring.CCW}
		hcw, hccw := t.Hops(cwArc), t.Hops(ccwArc)
		var arc ring.Arc
		switch {
		case hcw < hccw:
			arc = cwArc
		case hccw < hcw:
			arc = ccwArc
		default: // tie: pick the direction with smaller current peak load
			if peak(cwArc) <= peak(ccwArc) {
				arc = cwArc
			} else {
				arc = ccwArc
			}
		}
		t.VisitLinks(arc, func(l int) { load[l] += width })
		demands[[2]int{p.src, p.dst}] = Demand{Arc: arc, Width: width}
	}
	// Emit in deterministic (src, dst) node order.
	var out []Demand
	for _, src := range nodes {
		for _, dst := range nodes {
			if src != dst {
				out = append(out, demands[[2]int{src, dst}])
			}
		}
	}
	return out
}

// AllToAllDemandsNoWrap routes every ordered pair so that no arc crosses
// the "wrap" span between node N-1 and node 0: ascending pairs travel CW,
// descending pairs CCW. Combined with Wrht's contiguous (never-wrapping)
// groups this makes the whole schedule survive a failure of that span —
// see core.Options.AvoidWrap. Link loads roughly double versus balanced
// routing; the substrate charges any extra rounds honestly.
func AllToAllDemandsNoWrap(t ring.Topology, nodes []int, width int) []Demand {
	var out []Demand
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			dir := ring.CW
			if src > dst {
				dir = ring.CCW
			}
			out = append(out, Demand{Arc: ring.Arc{Src: src, Dst: dst, Dir: dir}, Width: width})
		}
	}
	return out
}

// LiangShenBound is the paper's wavelength requirement ⌈r²/8⌉ for one-step
// all-to-all among r equally spaced nodes on a WDM ring (Liang & Shen).
func LiangShenBound(r int) int {
	return (r*r + 7) / 8
}

// OptimalColors finds the minimum number of wavelengths for width-1 demands
// by exhaustive search. It is exponential and intended only for validating
// heuristics on small instances (len(demands) <= ~12).
func OptimalColors(t ring.Topology, demands []Demand) (int, error) {
	links := make([][]int, len(demands))
	for i, d := range demands {
		if d.Width != 1 {
			return 0, fmt.Errorf("wdm: OptimalColors supports width-1 demands only")
		}
		ls, err := arcLinks(t, d.Arc)
		if err != nil {
			return 0, err
		}
		links[i] = ls
	}
	lb, err := MaxLinkLoad(t, demands)
	if err != nil {
		return 0, err
	}
	conflict := make([][]bool, len(demands))
	for i := range conflict {
		conflict[i] = make([]bool, len(demands))
		for j := range conflict[i] {
			if i != j {
				conflict[i][j] = t.Conflict(demands[i].Arc, demands[j].Arc)
			}
		}
	}
	colors := make([]int, len(demands))
	var try func(i, k int) bool
	try = func(i, k int) bool {
		if i == len(demands) {
			return true
		}
		for c := 0; c < k; c++ {
			ok := true
			for j := 0; j < i; j++ {
				if conflict[i][j] && colors[j] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[i] = c
				if try(i+1, k) {
					return true
				}
			}
		}
		return false
	}
	for k := lb; ; k++ {
		if try(0, k) {
			return k, nil
		}
		if k > len(demands) {
			return 0, fmt.Errorf("wdm: OptimalColors failed to converge")
		}
	}
}
