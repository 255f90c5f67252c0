package runner

import (
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
)

// goldenSchedules builds a representative spread of schedules: ring, RD, HD,
// binomial, and Wrht plans (striped and not) over mixed node counts.
func goldenSchedules(t *testing.T) []*collective.Schedule {
	t.Helper()
	var out []*collective.Schedule
	add := func(s *collective.Schedule, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	for _, n := range []int{4, 9, 16, 30} {
		add(collective.RingAllReduce(n, 4*n))
		add(collective.RecursiveDoubling(n, 128))
		add(collective.HalvingDoubling(n, 128))
		add(collective.BinomialTree(n, 64))
	}
	for _, c := range []struct{ n, w, m int }{{16, 8, 3}, {30, 16, 5}, {64, 8, 9}} {
		p, err := core.BuildPlan(c.n, c.w, core.Options{M: c.m, Striping: true})
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Schedule(200)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}
