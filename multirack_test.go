package wrht

import (
	"testing"

	"wrht/internal/core"
)

func TestMultiRackTime(t *testing.T) {
	cfg := DefaultConfig(1) // Nodes ignored by MultiRackTime
	res, err := MultiRackTime(cfg, 8, 128, MustModel("ResNet50").Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntraReduceSec <= 0 || res.InterSec <= 0 || res.IntraBroadcastSec <= 0 {
		t.Fatalf("non-positive phases: %+v", res)
	}
	sum := res.IntraReduceSec + res.InterSec + res.IntraBroadcastSec
	if res.TotalSec != sum {
		t.Fatalf("total %v != phase sum %v", res.TotalSec, sum)
	}
	if res.TotalSec >= res.FlatERingSec {
		t.Fatalf("hierarchy %v not under flat E-Ring %v", res.TotalSec, res.FlatERingSec)
	}
}

func TestMultiRackValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	if _, err := MultiRackTime(cfg, 1, 8, 1024); err == nil {
		t.Fatal("1 rack accepted")
	}
	if _, err := MultiRackTime(cfg, 4, 8, 0); err == nil {
		t.Fatal("zero bytes accepted")
	}
}

func TestMultiRackErrorPaths(t *testing.T) {
	badOptical := DefaultConfig(1)
	badOptical.Optical.Wavelengths = 0
	badElectrical := DefaultConfig(1)
	badElectrical.Electrical.LinkGbps = -1
	cases := []struct {
		name         string
		cfg          Config
		racks, nodes int
		bytes        int64
	}{
		{"negative bytes", DefaultConfig(1), 4, 8, -1},
		{"zero racks", DefaultConfig(1), 0, 8, 1024},
		{"negative racks", DefaultConfig(1), -2, 8, 1024},
		{"zero nodes per rack", DefaultConfig(1), 4, 0, 1024},
		{"one node per rack", DefaultConfig(1), 4, 1, 1024},
		{"negative nodes per rack", DefaultConfig(1), 4, -3, 1024},
		{"invalid optical", badOptical, 4, 8, 1024},
		{"invalid electrical", badElectrical, 4, 8, 1024},
	}
	for _, tc := range cases {
		if _, err := MultiRackTime(tc.cfg, tc.racks, tc.nodes, tc.bytes); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestVerifyMultiRackErrorPaths(t *testing.T) {
	cfg := DefaultConfig(1)
	if err := VerifyMultiRack(cfg, 0, 8, 16); err == nil {
		t.Error("zero racks accepted")
	}
	if err := VerifyMultiRack(cfg, 4, 0, 16); err == nil {
		t.Error("zero nodes per rack accepted")
	}
	bad := cfg
	bad.Optical.Wavelengths = 0
	if err := VerifyMultiRack(bad, 4, 8, 16); err == nil {
		t.Error("invalid optical config accepted")
	}
}

func TestVerifyMultiRack(t *testing.T) {
	cfg := DefaultConfig(1)
	if err := VerifyMultiRack(cfg, 3, 12, 29); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMultiRack(cfg, 1, 12, 29); err == nil {
		t.Fatal("1 rack accepted")
	}
}

func TestMultiRackBytesPerElemValidation(t *testing.T) {
	// Regression: a negative element width used to flow straight into the
	// element count; it must be rejected exactly like CommunicationTime
	// rejects it, while 0 still means the FP32 default.
	bad := DefaultConfig(1)
	bad.BytesPerElem = -4
	if _, err := MultiRackTime(bad, 2, 8, 1<<20); err == nil {
		t.Fatal("negative BytesPerElem accepted")
	}
	zero := DefaultConfig(1)
	zero.BytesPerElem = 0
	four := DefaultConfig(1)
	four.BytesPerElem = 4
	rz, err := MultiRackTime(zero, 2, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := MultiRackTime(four, 2, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rz != rf {
		t.Fatalf("zero width %+v != default width %+v", rz, rf)
	}
}

// TestVerifyMultiRackExecutesPricedPlan: VerifyMultiRack executes the plan
// MultiRackTime prices, greedy all-to-all trigger included. On one session,
// verifying after pricing must be a plan-cache hit on the priced plan's key
// with no new build; a verifier that lowered its own options (or planned
// outside the session) would miss. At m=2 the greedy and formula per-rack
// plans differ (1 vs 7 steps at 16 nodes per rack, 5 vs 11 at 64), so
// verifying the wrong one would leave the priced plan unchecked.
func TestVerifyMultiRackExecutesPricedPlan(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.WrhtGroupSize = 2
	cfg.WrhtGreedyA2A = true
	formula := cfg
	formula.WrhtGreedyA2A = false
	for _, tc := range []struct{ nodesPerRack, greedySteps, formulaSteps int }{
		{16, 1, 7},
		{64, 5, 11},
	} {
		ss := NewSweepSession()
		priced, err := ss.multiRackTime(cfg, 2, tc.nodesPerRack, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		before := ss.Stats()
		if err := ss.verifyMultiRack(cfg, 2, tc.nodesPerRack, 29); err != nil {
			t.Fatalf("%d nodes per rack: %v", tc.nodesPerRack, err)
		}
		after := ss.Stats()
		if after.PlanBuilds != before.PlanBuilds || after.PlanHits != before.PlanHits+1 {
			t.Fatalf("%d nodes per rack: verification did not reuse the priced plan: plan hits/builds %d/%d -> %d/%d",
				tc.nodesPerRack, before.PlanHits, before.PlanBuilds, after.PlanHits, after.PlanBuilds)
		}
		plan, err := ss.multiRackPlan(cfg, 2, tc.nodesPerRack)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Intra.Policy != core.A2AGreedy || plan.Intra.NumSteps() != tc.greedySteps {
			t.Fatalf("%d nodes per rack: priced plan %v, want greedy with %d steps",
				tc.nodesPerRack, plan.Intra, tc.greedySteps)
		}
		other, err := ss.multiRackPlan(formula, 2, tc.nodesPerRack)
		if err != nil {
			t.Fatal(err)
		}
		if other.Intra.NumSteps() != tc.formulaSteps {
			t.Fatalf("%d nodes per rack: formula plan %v, want %d steps",
				tc.nodesPerRack, other.Intra, tc.formulaSteps)
		}
		if pkg, err := MultiRackTime(cfg, 2, tc.nodesPerRack, 1<<20); err != nil || pkg != priced {
			t.Fatalf("%d nodes per rack: MultiRackTime %+v (%v), session %+v", tc.nodesPerRack, pkg, err, priced)
		}
	}
}
