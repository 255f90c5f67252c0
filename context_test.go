package wrht

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestContextMethods pins the three spellings of each root operation to
// one body: a canceled context returns context.Canceled and a zero result
// (RunSweepContext keeps the grid shape instead, with the error in every
// unevaluated cell), and a nil context is bit-identical to the plain
// session method and to the package function, each on a fresh session.
func TestContextMethods(t *testing.T) {
	cfg := fabricTestConfig()
	jobs := fabricTestJobs()[:4]
	fleetJobs := fleetTestTrace(t, 12)
	spec := SweepSpec{
		Nodes:        []int{16, 24},
		MessageBytes: []int64{1 << 20},
		Algorithms:   []Algorithm{AlgWrht, AlgERing},
		Parallelism:  2,
	}
	cases := []struct {
		name     string
		zero     any
		ctx      func(ctx context.Context, ss *SweepSession) (any, error)
		plain    func(ss *SweepSession) (any, error)
		function func() (any, error)
	}{
		{
			name: "CommunicationTime",
			zero: Result{},
			ctx: func(ctx context.Context, ss *SweepSession) (any, error) {
				return ss.CommunicationTimeContext(ctx, cfg, AlgWrht, 1<<20)
			},
			plain:    func(ss *SweepSession) (any, error) { return ss.CommunicationTime(cfg, AlgWrht, 1<<20) },
			function: func() (any, error) { return CommunicationTime(cfg, AlgWrht, 1<<20) },
		},
		{
			name: "SimulateFabric",
			zero: FabricResult{},
			ctx: func(ctx context.Context, ss *SweepSession) (any, error) {
				return ss.SimulateFabricContext(ctx, cfg, jobs, FabricPolicy{Kind: FabricElastic})
			},
			plain: func(ss *SweepSession) (any, error) {
				return ss.SimulateFabric(cfg, jobs, FabricPolicy{Kind: FabricElastic})
			},
			function: func() (any, error) { return SimulateFabric(cfg, jobs, FabricPolicy{Kind: FabricElastic}) },
		},
		{
			name: "SimulateFleet",
			zero: FleetResult{},
			ctx: func(ctx context.Context, ss *SweepSession) (any, error) {
				return ss.SimulateFleetContext(ctx, cfg, fleetTestFabrics(), fleetTestShapes(), fleetJobs, FleetOptions{})
			},
			plain: func(ss *SweepSession) (any, error) {
				return ss.SimulateFleet(cfg, fleetTestFabrics(), fleetTestShapes(), fleetJobs, FleetOptions{})
			},
			function: func() (any, error) {
				return SimulateFleet(cfg, fleetTestFabrics(), fleetTestShapes(), fleetJobs, FleetOptions{})
			},
		},
		{
			name: "RunSweep",
			ctx: func(ctx context.Context, ss *SweepSession) (any, error) {
				return ss.RunSweepContext(ctx, spec)
			},
			plain:    func(ss *SweepSession) (any, error) { return ss.RunSweep(spec) },
			function: func() (any, error) { return RunSweep(spec) },
		},
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.ctx(canceled, NewSweepSession())
			if sr, ok := got.(*SweepResult); ok {
				if err != nil {
					t.Fatalf("canceled sweep failed as a whole: %v", err)
				}
				if len(sr.Cells) != 4 || sr.Failed != 4 {
					t.Fatalf("canceled sweep: %d cells, %d failed; want the 4-cell grid, all failed", len(sr.Cells), sr.Failed)
				}
				for i, c := range sr.Cells {
					if c.Index != i || !errors.Is(c.Err, context.Canceled) || c.Comm != nil {
						t.Fatalf("canceled sweep cell %d: %+v", i, c)
					}
				}
			} else {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled context: err %v, want context.Canceled", err)
				}
				if !reflect.DeepEqual(got, tc.zero) {
					t.Fatalf("canceled context returned a partial result: %+v", got)
				}
			}

			want, err := tc.ctx(nil, NewSweepSession())
			if err != nil {
				t.Fatal(err)
			}
			plain, err := tc.plain(NewSweepSession())
			if err != nil {
				t.Fatal(err)
			}
			function, err := tc.function()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, want) {
				t.Fatalf("plain method diverges from the nil-context method\n got %+v\nwant %+v", plain, want)
			}
			if !reflect.DeepEqual(function, want) {
				t.Fatalf("package function diverges from the nil-context method\n got %+v\nwant %+v", function, want)
			}
		})
	}
}
