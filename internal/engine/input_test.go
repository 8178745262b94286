package engine

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/trace"
)

// rejectsInput steps s with in and requires a *ValidationError on field
// that leaves the session's Snapshot bytes unchanged, after which the
// trace's own input for the slot must still step and commit.
func rejectsInput(t *testing.T, s *Session, traces *Traces, in SlotInput, field string) {
	t.Helper()
	before := snapshot(t, s)
	_, err := s.Step(in)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("Step(%+v) = %v, want *ValidationError", in, err)
	}
	if verr.Field != field {
		t.Errorf("rejected field %q, want %q", verr.Field, field)
	}
	if after := snapshot(t, s); !bytes.Equal(after, before) {
		t.Fatalf("rejected input changed the session:\nbefore: %s\n after: %s", before, after)
	}
	if _, err := s.Step(traces.InputAt(s.Slot())); err != nil {
		t.Fatalf("valid step after the rejection: %v", err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("commit after the rejection: %v", err)
	}
}

// TestStepRejectsNegativeInputs: batch Simulate refuses traces with
// negative demand, renewable or fuel-scale samples, so a streaming Step
// must refuse them too instead of reporting, for example, zero delay for
// a negative delay-tolerant arrival.
func TestStepRejectsNegativeInputs(t *testing.T) {
	traces := dayTraces(t, 2)
	for _, field := range []string{"DemandDS", "DemandDT", "Renewable", "FuelScale"} {
		t.Run(field, func(t *testing.T) {
			s := streamArms()[0].session(t, traces.Horizon())
			stepTo(t, s, traces, 5)
			in := traces.InputAt(s.Slot())
			switch field {
			case "DemandDS":
				in.DemandDS = -5
			case "DemandDT":
				in.DemandDT = -5
			case "Renewable":
				in.Renewable = -5
			case "FuelScale":
				in.FuelScale = -5
			}
			rejectsInput(t, s, traces, in, field)
		})
	}
}

// TestStepRejectsRealTimePriceOutsideCap: a real-time price outside
// [0, PmaxUSD] used to pass Step and fail in Commit after the battery
// and the long-term settlement were applied, wedging the session with a
// pending decision that every Commit retry re-applied.
func TestStepRejectsRealTimePriceOutsideCap(t *testing.T) {
	traces := dayTraces(t, 2)
	pmax := DefaultOptions().PmaxUSD
	for _, prt := range []float64{-1, pmax + 1} {
		s := streamArms()[0].session(t, traces.Horizon())
		stepTo(t, s, traces, 5)
		in := traces.InputAt(s.Slot())
		in.PriceRT = prt
		rejectsInput(t, s, traces, in, "PriceRT")
	}
}

// TestStepRejectsLongTermPriceOutsideCapAtBoundary: a long-term price
// outside [0, PmaxUSD] at a coarse boundary used to fail in the market
// only after PlanCoarse had run, so the failed Step still changed the
// controller's state (and the Snapshot bytes). Between boundaries the
// long-term price is not read and stays unchecked.
func TestStepRejectsLongTermPriceOutsideCapAtBoundary(t *testing.T) {
	traces := dayTraces(t, 3)
	pmax := DefaultOptions().PmaxUSD
	T := DefaultOptions().T
	for _, arm := range streamArms() {
		t.Run(arm.name, func(t *testing.T) {
			s := arm.session(t, traces.Horizon())
			stepTo(t, s, traces, T)
			for _, plt := range []float64{-1, pmax + 1} {
				in := traces.InputAt(s.Slot())
				in.PriceLT = plt
				before := snapshot(t, s)
				_, err := s.Step(in)
				if err == nil {
					t.Fatalf("PriceLT %g at slot %d accepted", plt, s.Slot())
				}
				if after := snapshot(t, s); !bytes.Equal(after, before) {
					t.Fatalf("PriceLT %g: rejected input (%v) changed the session", plt, err)
				}
				var verr *ValidationError
				if !errors.As(err, &verr) || verr.Field != "PriceLT" {
					t.Fatalf("PriceLT %g at slot %d: err = %v, want *ValidationError on PriceLT", plt, s.Slot(), err)
				}
			}
			stepTo(t, s, traces, T+1)
			in := traces.InputAt(s.Slot())
			in.PriceLT = pmax + 1
			if _, err := s.Step(in); err != nil {
				t.Fatalf("PriceLT off a boundary is not read, but Step failed: %v", err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStepRejectsHugeEnergies: a delay-sensitive demand near 1e300 used
// to pass Step and then fail Commit's energy-balance check on every
// retry, wedging the session; a delay-tolerant demand or renewable
// output that large committed but overflowed the report accumulators to
// +Inf, so every later Snapshot failed. Step now rejects each above
// trace.MaxEnergyMWh, and accepts the bound itself.
func TestStepRejectsHugeEnergies(t *testing.T) {
	traces := dayTraces(t, 2)
	for _, field := range []string{"DemandDS", "DemandDT", "Renewable"} {
		t.Run(field, func(t *testing.T) {
			s := streamArms()[0].session(t, traces.Horizon())
			stepTo(t, s, traces, 5)
			set := func(v float64) SlotInput {
				in := traces.InputAt(s.Slot())
				switch field {
				case "DemandDS":
					in.DemandDS = v
				case "DemandDT":
					in.DemandDT = v
				case "Renewable":
					in.Renewable = v
				}
				return in
			}
			rejectsInput(t, s, traces, set(1e300), field)
			if _, err := s.Step(set(trace.MaxEnergyMWh)); err != nil {
				t.Fatalf("Step at the bound: %v", err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatalf("Commit at the bound: %v", err)
			}
			snapshot(t, s)
		})
	}
}

// TestTraceValidationBoundsEnergies: batch runs read the same bound
// through trace validation, so a trace carrying an energy sample Step
// would reject is refused before the run starts instead of mid-run.
func TestTraceValidationBoundsEnergies(t *testing.T) {
	for _, field := range []string{"DemandDS", "DemandDT", "Renewable"} {
		traces := dayTraces(t, 1)
		set := traces.Set()
		sr := map[string]*trace.Series{"DemandDS": set.DemandDS, "DemandDT": set.DemandDT, "Renewable": set.Renewable}[field]
		sr.Values[7] = trace.MaxEnergyMWh
		if err := set.Validate(); err != nil {
			t.Fatalf("%s at the bound: %v", field, err)
		}
		sr.Values[7] = 2 * trace.MaxEnergyMWh
		if _, err := Simulate(PolicySmartDPSS, DefaultOptions(), traces); err == nil {
			t.Fatalf("%s above the bound: batch run accepted the trace", field)
		}
	}
}

// TestRewrittenTracesRevalidated: NewReplaySession trusts the record
// that a trace set passed validation unchanged, so every way of
// rewriting the set must drop it. Each poison is written past the
// record (straight into the set), then a rewrite runs; the session must
// still refuse the set with the validation error the poison earns.
func TestRewrittenTracesRevalidated(t *testing.T) {
	poisons := []struct {
		name   string
		poison func(*trace.Set)
		want   string
	}{
		{"NaN", func(s *trace.Set) { s.PriceRT.Values[5] = math.NaN() }, "trace: price_rt[5] is NaN"},
		{"negative", func(s *trace.Set) { s.PriceLT.Values[5] = -1 }, "trace: PriceLT has negative samples"},
		{"above bound", func(s *trace.Set) { s.Renewable.Values[5] = 2 * trace.MaxEnergyMWh },
			"trace: Renewable has samples above 1e+06 MWh"},
	}
	// Each rewrite leaves the poisoned sample as it is (or, for
	// ApplyCooling, refuses the set whole), and returns the traces a
	// session would then be built over.
	rewrites := []struct {
		name    string
		rewrite func(*Traces) *Traces
	}{
		{"ScaleSystem", func(tr *Traces) *Traces { return tr.ScaleSystem(1) }},
		{"SetPenetration", func(tr *Traces) *Traces { _ = tr.SetPenetration(tr.RenewablePenetration()); return tr }},
		{"ScaleDemandVariation", func(tr *Traces) *Traces { _ = tr.ScaleDemandVariation(1); return tr }},
		{"ApplyCooling", func(tr *Traces) *Traces { _, _ = tr.ApplyCooling(CoolingConfig{MeanTempC: 20}); return tr }},
		{"PerturbUniform", func(tr *Traces) *Traces {
			out, err := tr.PerturbUniform(3, 0, 1e9)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"Set", func(tr *Traces) *Traces { tr.Set(); return tr }},
		{"TracesFromSet", func(tr *Traces) *Traces { return TracesFromSet(tr.View()) }},
	}
	for _, p := range poisons {
		t.Run(p.name+"/recorded", func(t *testing.T) {
			// The control: an unrewritten set keeps its record, and its
			// clone too, so the poison goes unseen. Without it this test
			// could not fail.
			tr := dayTraces(t, 1)
			p.poison(tr.View())
			if _, err := NewReplaySession(PolicySmartDPSS, DefaultOptions(), tr.Clone()); err != nil {
				t.Fatalf("recorded traces revalidated: %v", err)
			}
		})
		for _, r := range rewrites {
			if r.name == "PerturbUniform" && p.name == "negative" {
				continue // it clips every sample at zero itself
			}
			t.Run(p.name+"/"+r.name, func(t *testing.T) {
				tr := dayTraces(t, 1)
				p.poison(tr.View())
				_, err := NewReplaySession(PolicySmartDPSS, DefaultOptions(), r.rewrite(tr))
				if err == nil || err.Error() != p.want {
					t.Fatalf("got %v, want %q", err, p.want)
				}
			})
		}
	}
}

// FuzzSlotInput steps a mid-run session of the streaming arm that pick
// selects, at a coarse boundary or just before one, with an arbitrary
// slot input. Step must never panic. A *ValidationError must leave the
// session's Snapshot bytes unchanged, and the trace's own input must
// then step and commit. An accepted Step must commit, and the session
// must then still snapshot: an input Step lets through may not wedge
// the session or poison its report.
func FuzzSlotInput(f *testing.F) {
	traces := dayTraces(f, 2)
	horizon := traces.Horizon()
	T := DefaultOptions().T
	arms := streamArms()
	bases := make([][2][]byte, len(arms)) // checkpoints at slots T−1 and T
	for i, arm := range arms {
		s := arm.session(f, horizon)
		stepTo(f, s, traces, T-1)
		bases[i][0] = snapshot(f, s)
		stepTo(f, s, traces, T)
		bases[i][1] = snapshot(f, s)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for i := range arms {
		for _, boundary := range []bool{false, true} {
			f.Add(uint8(i), boundary, 0.8, 0.3, 0.2, 45.0, 38.0, 1.0)
			f.Add(uint8(i), boundary, -5.0, 0.3, 0.2, 45.0, 38.0, 1.0)
			f.Add(uint8(i), boundary, 0.8, 0.3, 0.2, 151.0, 38.0, 1.0)
			f.Add(uint8(i), boundary, 0.8, 0.3, 0.2, 45.0, -1.0, 1.0)
			f.Add(uint8(i), boundary, 0.8, nan, 0.2, 45.0, 38.0, inf)
			f.Add(uint8(i), boundary, 1e300, 1e300, 1e300, 150.0, 0.0, 0.0)
			f.Add(uint8(i), boundary, 1e300, 0.3, 0.2, 45.0, 38.0, 1.0)
			f.Add(uint8(i), boundary, 0.8, 1e300, 0.2, 45.0, 38.0, 1.0)
			f.Add(uint8(i), boundary, 0.8, 0.3, 1e300, 45.0, 38.0, 1.0)
		}
	}
	f.Fuzz(func(t *testing.T, pick uint8, boundary bool, dds, ddt, r, prt, plt, fuel float64) {
		i := int(pick) % len(arms)
		base := bases[i][0]
		if boundary {
			base = bases[i][1]
		}
		s := arms[i].session(t, horizon)
		if err := s.Restore(base); err != nil {
			t.Fatal(err)
		}
		in := SlotInput{DemandDS: dds, DemandDT: ddt, Renewable: r, PriceRT: prt, PriceLT: plt, FuelScale: fuel}
		_, err := s.Step(in)
		var verr *ValidationError
		switch {
		case errors.As(err, &verr):
			if after := snapshot(t, s); !bytes.Equal(after, base) {
				t.Fatalf("rejected input %+v (%v) changed the session", in, err)
			}
			if _, err := s.Step(traces.InputAt(s.Slot())); err != nil {
				t.Fatalf("valid step after rejecting %+v: %v", in, err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatalf("commit after rejecting %+v: %v", in, err)
			}
		case err == nil:
			if _, err := s.Commit(); err != nil {
				t.Fatalf("accepted input %+v failed to commit: %v", in, err)
			}
			if _, err := s.Snapshot(); err != nil {
				t.Fatalf("snapshot after committing %+v: %v", in, err)
			}
		}
	})
}
