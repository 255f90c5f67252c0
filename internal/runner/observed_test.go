package runner

import (
	"reflect"
	"testing"

	"wrht/internal/electrical"
	"wrht/internal/obs"
)

// TestObservedPricingBitIdentical: attaching a flight recorder to the classed
// runners changes nothing about the priced numbers — recording is
// write-only — and the recorder comes back with per-step spans, wavelength
// samples, and run counters for every schedule priced.
func TestObservedPricingBitIdentical(t *testing.T) {
	for _, s := range classedGoldenCases(t) {
		cs := s.Compact()
		cls := cs.Classes()

		optOpts := DefaultOpticalOptions()
		rec := obs.New()
		want, errWant := RunOpticalClassed(cls, optOpts)
		got, errGot := RunOpticalClassedObserved(cls, optOpts, rec, "price optical "+s.Algorithm, nil)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%s: optical error divergence: plain=%v observed=%v", s.Algorithm, errWant, errGot)
		}
		if errWant == nil {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: observed optical result diverges\n got %+v\nwant %+v", s.Algorithm, got, want)
			}
			snap := rec.Snapshot()
			if snap.Spans != cls.NumSteps() {
				t.Fatalf("%s: recorded %d optical step spans, want %d", s.Algorithm, snap.Spans, cls.NumSteps())
			}
			if snap.Samples != cls.NumSteps() {
				t.Fatalf("%s: recorded %d λ-width samples, want %d", s.Algorithm, snap.Samples, cls.NumSteps())
			}
			if n := rec.Counter("pricer.optical.runs"); n != 1 {
				t.Fatalf("%s: pricer.optical.runs = %d, want 1", s.Algorithm, n)
			}
			sym := rec.Counter("pricer.optical.steps.symmetric")
			mat := rec.Counter("pricer.optical.steps.materialized")
			if int(sym+mat) != cls.NumSteps() {
				t.Fatalf("%s: symmetric %d + materialized %d != steps %d",
					s.Algorithm, sym, mat, cls.NumSteps())
			}
			if rec.FloatCounter("pricer.optical.lambda_seconds") < 0 {
				t.Fatalf("%s: negative λ·seconds", s.Algorithm)
			}
		}

		elecOpts := ElectricalOptions{Params: electrical.DefaultParams()}
		erec := obs.New()
		ewant, errWant := RunElectricalClassed(cls, elecOpts)
		egot, errGot := RunElectricalClassedObserved(cls, elecOpts, erec, "price electrical "+s.Algorithm)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%s: electrical error divergence: plain=%v observed=%v", s.Algorithm, errWant, errGot)
		}
		if errWant == nil {
			if !reflect.DeepEqual(egot, ewant) {
				t.Fatalf("%s: observed electrical result diverges\n got %+v\nwant %+v", s.Algorithm, egot, ewant)
			}
			esnap := erec.Snapshot()
			if esnap.Spans != cls.NumSteps() {
				t.Fatalf("%s: recorded %d electrical step spans, want %d", s.Algorithm, esnap.Spans, cls.NumSteps())
			}
			classed := erec.Counter("pricer.electrical.steps.classed")
			exact := erec.Counter("pricer.electrical.steps.exact")
			if int(classed+exact) != cls.NumSteps() {
				t.Fatalf("%s: classed %d + exact %d != steps %d",
					s.Algorithm, classed, exact, cls.NumSteps())
			}
		}

		cls.Release()
		cs.Release()
	}
}

// TestObservedNilRecorderIdentical: the Observed entry points with a nil
// recorder are exactly the plain entry points.
func TestObservedNilRecorderIdentical(t *testing.T) {
	for _, s := range goldenSchedules(t) {
		cs := s.Compact()
		cls := cs.Classes()
		opts := DefaultOpticalOptions()
		want, err1 := RunOpticalClassed(cls, opts)
		got, err2 := RunOpticalClassedObserved(cls, opts, nil, "", nil)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: nil-recorder observed path diverges", s.Algorithm)
		}
		cls.Release()
		cs.Release()
	}
}
