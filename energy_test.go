package wrht

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wrht/internal/runner"
)

func TestEnergyEstimateOrdering(t *testing.T) {
	cfg := DefaultConfig(256)
	bytes := MustModel("ResNet50").Bytes
	w, err := EnergyEstimate(cfg, AlgWrht, bytes)
	if err != nil {
		t.Fatal(err)
	}
	e, err := EnergyEstimate(cfg, AlgERing, bytes)
	if err != nil {
		t.Fatal(err)
	}
	o, err := EnergyEstimate(cfg, AlgORing, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalJ <= 0 || e.TotalJ <= 0 || o.TotalJ <= 0 {
		t.Fatalf("non-positive energies: %v %v %v", w.TotalJ, e.TotalJ, o.TotalJ)
	}
	// The paper's motivation: the optical scheme costs less energy than the
	// electrical baseline (per-bit) and than O-Ring (duration-driven static).
	if w.TotalJ >= e.TotalJ {
		t.Errorf("Wrht %.3g J not below E-Ring %.3g J", w.TotalJ, e.TotalJ)
	}
	if w.TotalJ >= o.TotalJ {
		t.Errorf("Wrht %.3g J not below O-Ring %.3g J", w.TotalJ, o.TotalJ)
	}
	if e.TuningJ != 0 {
		t.Error("electrical energy should have no tuning term")
	}
	if w.TuningJ <= 0 {
		t.Error("optical energy should include tuning")
	}
}

func TestEventLevelTimeBarrierMatchesStepModel(t *testing.T) {
	cfg := DefaultConfig(64)
	bytes := int64(16 << 20)
	step, err := CommunicationTime(cfg, AlgWrht, bytes)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EventLevelTime(cfg, AlgWrht, bytes, false)
	if err != nil {
		t.Fatal(err)
	}
	rel := (ev.Seconds - step.Seconds) / step.Seconds
	if rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("event-level barrier %.9g vs step model %.9g", ev.Seconds, step.Seconds)
	}
	async, err := EventLevelTime(cfg, AlgWrht, bytes, true)
	if err != nil {
		t.Fatal(err)
	}
	if async.Seconds > ev.Seconds*1.05 {
		t.Fatalf("async %.6g much slower than barrier %.6g", async.Seconds, ev.Seconds)
	}
	if !strings.Contains(async.Substrate, "async") {
		t.Fatalf("substrate label %q", async.Substrate)
	}
}

// TestEventLevelTimeEveryOpticalAlgorithm: for every optical algorithm,
// barrier mode equals CommunicationTime when no step splits into extra
// wavelength rounds, and is never slower when one does.
func TestEventLevelTimeEveryOpticalAlgorithm(t *testing.T) {
	equal, split := 0, 0
	for _, alg := range opticalAlgorithms() {
		for _, n := range []int{7, 13, 16, 24, 31, 64, 97, 128} {
			for _, w := range []int{1, 2, 8, 16, 64} {
				cfg := DefaultConfig(n)
				cfg.Optical.Wavelengths = w
				for _, bytes := range []int64{4, 1 << 10, 1 << 20} {
					where := fmt.Sprintf("%s N=%d W=%d bytes=%d", alg, n, w, bytes)
					step, err := CommunicationTime(cfg, alg, bytes)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					ev, err := EventLevelTime(cfg, alg, bytes, false)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					elems, err := bufferElems(bytes, cfg.BytesPerElem)
					if err != nil {
						t.Fatal(err)
					}
					cls, _, _, err := NewSweepSession().buildClassSchedule(cfg, alg, elems)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					r, err := runner.RunOpticalClassed(cls, opticalOptions(cfg, alg))
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if r.ExtraRounds == 0 {
						equal++
						if math.Abs(ev.Seconds-step.Seconds) > 1e-12*step.Seconds {
							t.Errorf("%s: barrier %.17g, step model %.17g", where, ev.Seconds, step.Seconds)
						}
					} else {
						split++
						if ev.Seconds > step.Seconds*(1+1e-12) {
							t.Errorf("%s: %d extra rounds, barrier %.17g slower than step model %.17g",
								where, r.ExtraRounds, ev.Seconds, step.Seconds)
						}
					}
				}
			}
		}
	}
	if equal == 0 || split == 0 {
		t.Fatalf("grid covers %d one-round and %d split points; want both", equal, split)
	}
	t.Logf("%d one-round points, %d split points", equal, split)
}

func TestEventLevelTimeRejectsElectrical(t *testing.T) {
	cfg := DefaultConfig(8)
	if _, err := EventLevelTime(cfg, AlgERing, 1024, false); err == nil {
		t.Fatal("electrical algorithm accepted")
	}
	if _, err := EventLevelTime(cfg, AlgWrht, 0, false); err == nil {
		t.Fatal("zero bytes accepted")
	}
}

func TestConfigSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	cfg := DefaultConfig(512)
	cfg.WrhtGroupSize = 5
	cfg.Optical.Wavelengths = 32
	cfg.Electrical.LinkGbps = 40
	if err := SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cfg)
	}
}

func TestLoadConfigRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, `{"Nodes": 8, "Typo": true}`); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := writeFile(invalid, `{"Nodes": 1}`); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(invalid); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := SaveConfig(Config{}, filepath.Join(dir, "x.json")); err == nil {
		t.Fatal("SaveConfig accepted invalid config")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestEnergyEstimateConsistentWithCommunicationTime(t *testing.T) {
	// EnergyEstimate builds the schedule once and must integrate the static
	// term over exactly the duration CommunicationTime reports.
	cfg := DefaultConfig(64)
	for _, alg := range []Algorithm{AlgERing, AlgWrht} {
		rep, err := EnergyEstimate(cfg, alg, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := CommunicationTime(cfg, alg, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Seconds != ct.Seconds {
			t.Fatalf("%s: energy over %.9g s, communication %.9g s", alg, rep.Seconds, ct.Seconds)
		}
	}
}
