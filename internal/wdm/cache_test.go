package wdm

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wrht/internal/ring"
)

// shapeOf reduces full rounds to the structure the coloring cache stores,
// checking on the way that AsGiven rounds really are contiguous index runs.
func shapeOf(t *testing.T, rounds []Round) []RoundShape {
	t.Helper()
	out := make([]RoundShape, 0, len(rounds))
	next := 0
	for _, rd := range rounds {
		for _, di := range rd.Demands {
			if di != next {
				t.Fatalf("as-given round holds demand %d, want %d: rounds are not contiguous", di, next)
			}
			next++
		}
		out = append(out, RoundShape{End: next, Colors: rd.Assignment.NumColors})
	}
	return out
}

// TestColoringCacheMatchesRounds: for random demand sets on several ring
// sizes, budgets and both policies, the shape (and, from a cache used for
// full rounds, the stripes) returned — on the miss that fills the entry and
// on every later hit — is exactly what a fresh Rounds run produces, and one
// cache keeps ring sizes, budgets and policies apart (the same demands
// under a different key are colored anew).
func TestColoringCacheMatchesRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c, full := NewColoringCache(), NewColoringCache()
	type query struct {
		topo    ring.Topology
		demands []Demand
		w       int
		policy  Policy
	}
	var queries []query
	small := ring.MustNew(7)
	for trial := 0; trial < 30; trial++ {
		// Arcs among nodes 0..6 are valid on every ring below, but their
		// links — and so their conflicts — depend on the ring size.
		demands := randomDemands(rng, small, 1+rng.Intn(20), 4)
		w := 4 + rng.Intn(6)
		for _, n := range []int{7, 12, 13} {
			topo := ring.MustNew(n)
			for _, policy := range []Policy{FirstFit, BestFit} {
				queries = append(queries, query{topo, demands, w, policy})
			}
			queries = append(queries, query{topo, demands, w + 1, FirstFit})
		}
	}
	for pass := 0; pass < 2; pass++ {
		workspaces := map[int]*Workspace{}
		for i, q := range queries {
			ws := workspaces[q.topo.N()]
			if ws == nil {
				ws = NewWorkspace(q.topo)
				workspaces[q.topo.N()] = ws
			}
			got, err := c.Shape(ws, q.demands, q.w, q.policy)
			if err != nil {
				t.Fatal(err)
			}
			rounds, err := Rounds(q.topo, q.demands, q.w, q.policy, AsGiven)
			if err != nil {
				t.Fatal(err)
			}
			if want := shapeOf(t, rounds); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d query %d (n=%d w=%d %v): cached shape %v, fresh %v",
					pass, i, q.topo.N(), q.w, q.policy, got, want)
			}
			gotFull, err := full.Rounds(ws, q.demands, q.w, q.policy)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotFull, rounds) {
				t.Fatalf("pass %d query %d (n=%d w=%d %v): cached rounds %+v, fresh %+v",
					pass, i, q.topo.N(), q.w, q.policy, gotFull, rounds)
			}
		}
	}
	for _, cache := range []*ColoringCache{c, full} {
		hits, builds := cache.Stats()
		if builds != int64(len(queries)) || hits != int64(len(queries)) {
			t.Fatalf("stats: %d hits, %d builds; want %d of each (every key distinct, second pass all hits)",
				hits, builds, len(queries))
		}
	}
}

// TestColoringCacheErrorsNotStored: a demand set the splitter rejects
// reports the error on every lookup and never enters the cache.
func TestColoringCacheErrorsNotStored(t *testing.T) {
	ws := NewWorkspace(ring.MustNew(8))
	c := NewColoringCache()
	bad := []Demand{{Arc: ring.Arc{Src: 0, Dst: 3, Dir: ring.CW}, Width: 5}}
	for i := 0; i < 2; i++ {
		if _, err := c.Shape(ws, bad, 4, FirstFit); err == nil {
			t.Fatalf("lookup %d: width above budget accepted", i)
		}
	}
	if hits, builds := c.Stats(); hits != 0 || builds != 0 {
		t.Fatalf("failed colorings counted: %d hits, %d builds", hits, builds)
	}
}

// TestColoringCacheConcurrent: many goroutines querying overlapping keys
// (each on its own workspace, as pricers do) all receive the fresh
// shapes, and the counters come out as if the lookups had run serially:
// one build per distinct key.
func TestColoringCacheConcurrent(t *testing.T) {
	topo := ring.MustNew(16)
	rng := rand.New(rand.NewSource(5))
	sets := make([][]Demand, 12)
	want := make([][]RoundShape, len(sets))
	for i := range sets {
		sets[i] = randomDemands(rng, topo, 10+rng.Intn(30), 3)
		rounds, err := Rounds(topo, sets[i], 6, FirstFit, AsGiven)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = shapeOf(t, rounds)
	}
	c := NewColoringCache()
	const goroutines, reps = 8, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := NewWorkspace(topo)
			for r := 0; r < reps; r++ {
				for k := range sets {
					i := (g + k) % len(sets)
					got, err := c.Shape(ws, sets[i], 6, FirstFit)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d set %d: shape %v, want %v", g, i, got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	hits, builds := c.Stats()
	if total := int64(goroutines * reps * len(sets)); builds != int64(len(sets)) || hits != total-builds {
		t.Fatalf("stats: %d hits, %d builds for %d lookups of %d keys", hits, builds, total, len(sets))
	}
}
