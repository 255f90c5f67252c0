// Package ring models the bidirectional optical ring topology used by
// TeraRack-style interconnects: N nodes connected sequentially, with one
// waveguide per direction. Transfers occupy directed arcs of the ring; two
// transfers conflict (must use different wavelengths) exactly when their arcs
// share a directed link.
//
// The package also provides the contiguous-group partitioning and
// representative ("intermediate node") selection that the Wrht scheme uses.
package ring

import (
	"fmt"
)

// Direction of travel around the ring. CW ("clockwise") moves from node i to
// node (i+1) mod N; CCW moves from node i to node (i-1+N) mod N.
type Direction int8

const (
	CW Direction = iota
	CCW
)

func (d Direction) String() string {
	switch d {
	case CW:
		return "cw"
	case CCW:
		return "ccw"
	default:
		return fmt.Sprintf("Direction(%d)", int8(d))
	}
}

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction {
	if d == CW {
		return CCW
	}
	return CW
}

// Topology is an N-node ring. The zero value is invalid; use New.
type Topology struct {
	n int
}

// New returns an N-node ring topology. N must be at least 2.
func New(n int) (Topology, error) {
	if n < 2 {
		return Topology{}, fmt.Errorf("ring: need at least 2 nodes, got %d", n)
	}
	return Topology{n: n}, nil
}

// MustNew is New that panics on error, for tests and fixed-size callers.
func MustNew(n int) Topology {
	t, err := New(n)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of nodes.
func (t Topology) N() int { return t.n }

// Contains reports whether node is a valid node index.
func (t Topology) Contains(node int) bool { return node >= 0 && node < t.n }

// Dist returns the number of hops from src to dst travelling in direction d.
// Dist(x, x, d) == 0.
func (t Topology) Dist(src, dst int, d Direction) int {
	t.check(src)
	t.check(dst)
	if d == CW {
		return ((dst-src)%t.n + t.n) % t.n
	}
	return ((src-dst)%t.n + t.n) % t.n
}

// ShortestDir returns the direction with fewer hops from src to dst,
// preferring CW on ties. src must differ from dst.
func (t Topology) ShortestDir(src, dst int) Direction {
	if src == dst {
		panic(fmt.Sprintf("ring: ShortestDir(%d, %d) on identical nodes", src, dst))
	}
	if t.Dist(src, dst, CW) <= t.Dist(src, dst, CCW) {
		return CW
	}
	return CCW
}

func (t Topology) check(node int) {
	if !t.Contains(node) {
		panic(fmt.Sprintf("ring: node %d out of range [0,%d)", node, t.n))
	}
}

// Link is a directed waveguide segment leaving node From in direction Dir:
// CW link i connects i -> i+1; CCW link i connects i -> i-1.
type Link struct {
	From int
	Dir  Direction
}

// Index maps a link to a dense [0, 2N) index: CW links occupy [0, N),
// CCW links occupy [N, 2N).
func (t Topology) Index(l Link) int {
	t.check(l.From)
	if l.Dir == CW {
		return l.From
	}
	return t.n + l.From
}

// NumLinks returns the total number of directed links (2N).
func (t Topology) NumLinks() int { return 2 * t.n }

// Arc is a directed transfer path on the ring from Src to Dst travelling Dir.
// Src must differ from Dst for a non-empty arc.
type Arc struct {
	Src, Dst int
	Dir      Direction
}

func (a Arc) String() string {
	return fmt.Sprintf("%d-%s->%d", a.Src, a.Dir, a.Dst)
}

// ShortestArc returns the arc from src to dst using the shortest direction
// (CW preferred on ties).
func (t Topology) ShortestArc(src, dst int) Arc {
	return Arc{Src: src, Dst: dst, Dir: t.ShortestDir(src, dst)}
}

// Route returns the arc a transfer from src to dst travels: pinned to dir
// when routed, otherwise the shortest arc.
func (t Topology) Route(src, dst int, dir Direction, routed bool) Arc {
	if !routed {
		return t.ShortestArc(src, dst)
	}
	return Arc{Src: src, Dst: dst, Dir: dir}
}

// Hops returns the number of links the arc traverses.
func (t Topology) Hops(a Arc) int { return t.Dist(a.Src, a.Dst, a.Dir) }

// Links returns the directed links the arc occupies, in traversal order.
func (t Topology) Links(a Arc) []Link {
	h := t.Hops(a)
	out := make([]Link, 0, h)
	cur := a.Src
	for i := 0; i < h; i++ {
		out = append(out, Link{From: cur, Dir: a.Dir})
		cur = t.Step(cur, a.Dir)
	}
	return out
}

// Step returns the neighbor of node in direction d.
func (t Topology) Step(node int, d Direction) int {
	t.check(node)
	if d == CW {
		return (node + 1) % t.n
	}
	return (node - 1 + t.n) % t.n
}

// VisitLinks calls fn with the dense index of every link the arc occupies.
// It avoids allocating the slice that Links returns.
func (t Topology) VisitLinks(a Arc, fn func(linkIndex int)) {
	h := t.Hops(a)
	cur := a.Src
	for i := 0; i < h; i++ {
		fn(t.Index(Link{From: cur, Dir: a.Dir}))
		cur = t.Step(cur, a.Dir)
	}
}

// AppendArcLinks appends the dense index of every link the arc occupies to
// buf and returns the grown slice — the allocation-free form hot paths use
// (a caller-owned arena instead of VisitLinks' closure).
func (t Topology) AppendArcLinks(a Arc, buf []int) []int {
	h := t.Hops(a)
	cur := a.Src
	for i := 0; i < h; i++ {
		buf = append(buf, t.Index(Link{From: cur, Dir: a.Dir}))
		cur = t.Step(cur, a.Dir)
	}
	return buf
}

// Conflict reports whether two arcs share at least one directed link.
func (t Topology) Conflict(a, b Arc) bool {
	if a.Dir != b.Dir {
		return false // opposite waveguides never conflict
	}
	// Arc a covers links starting at positions [Src, Src+hops) walking Dir.
	ha, hb := t.Hops(a), t.Hops(b)
	if ha == 0 || hb == 0 {
		return false
	}
	// Normalize to CW offsets of the link start nodes.
	var sa, sb int
	if a.Dir == CW {
		sa, sb = a.Src, b.Src
	} else {
		// CCW link leaving node x occupies "position" x; walking CCW visits
		// positions x, x-1, ... So convert to a CW-style interval by
		// reflecting: interval of length h starting at (x-h+1).
		sa = ((a.Src-ha+1)%t.n + t.n) % t.n
		sb = ((b.Src-hb+1)%t.n + t.n) % t.n
	}
	// Two circular intervals [sa, sa+ha), [sb, sb+hb) intersect?
	return circularIntervalsIntersect(sa, ha, sb, hb, t.n)
}

func circularIntervalsIntersect(s1, l1, s2, l2, n int) bool {
	if l1 >= n || l2 >= n {
		return true
	}
	d := ((s2-s1)%n + n) % n
	// interval 2 starts d positions after interval 1 (mod n)
	return d < l1 || n-d < l2
}

// Group is a contiguous run of ring positions with a designated
// representative (the "intermediate node" in the paper).
type Group struct {
	Members []int // in ring order
	Rep     int   // representative node id (an element of Members)
}

// RepIndex returns the index of the representative inside Members.
func (g Group) RepIndex() int {
	for i, m := range g.Members {
		if m == g.Rep {
			return i
		}
	}
	return -1
}

// Middle returns the middle element of a non-empty slice, favoring the lower
// index for even lengths — the paper's "intermediate node".
func Middle(members []int) int {
	if len(members) == 0 {
		panic("ring: Middle of empty group")
	}
	return members[(len(members)-1)/2]
}

// PartitionContiguous splits members (assumed in ring order) into contiguous
// groups of at most m, assigning each group's middle element as
// representative. The final group may be smaller. m must be >= 2 unless
// len(members) == 1.
func PartitionContiguous(members []int, m int) []Group {
	if m < 2 {
		panic(fmt.Sprintf("ring: group size m=%d (need >= 2)", m))
	}
	if len(members) == 0 {
		return nil
	}
	groups := make([]Group, 0, (len(members)+m-1)/m)
	for off := 0; off < len(members); off += m {
		end := off + m
		if end > len(members) {
			end = len(members)
		}
		g := Group{Members: members[off:end:end]}
		g.Rep = Middle(g.Members)
		groups = append(groups, g)
	}
	return groups
}

// AllNodes returns [0, 1, ..., N-1].
func (t Topology) AllNodes() []int {
	out := make([]int, t.n)
	for i := range out {
		out[i] = i
	}
	return out
}
