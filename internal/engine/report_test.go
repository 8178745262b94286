package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// allPolicies is every policy arm the engine can instantiate.
var allPolicies = []Policy{
	PolicySmartDPSS, PolicyImpatient, PolicyOfflineOptimal,
	PolicyOfflineHorizon, PolicyLookahead, PolicyLyapunov,
}

// replayReport runs policy over traces through a replay session,
// handing every slot's outcome to visit (when not nil), and returns the
// session's last Status next to its Finish report.
func replayReport(t *testing.T, policy Policy, opts Options, traces *Traces, visit func(*SlotOutcome)) (SessionStatus, *Report) {
	t.Helper()
	s, err := NewReplaySession(policy, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		out, err := s.StepReplay()
		if err != nil {
			t.Fatalf("%s slot %d: %v", policy, s.Slot(), err)
		}
		if visit != nil {
			visit(&out)
		}
	}
	st := s.Status()
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return st, rep
}

// TestZeroSlotReportIsFinite: a session finished before its first slot
// reports a zero backlog maximum and the current battery level as both
// extremes, and its report encodes as JSON.
func TestZeroSlotReportIsFinite(t *testing.T) {
	traces := dayTraces(t, 1)
	for _, policy := range allPolicies {
		s, err := NewReplaySession(policy, DefaultOptions(), traces)
		if err != nil {
			t.Fatal(err)
		}
		level := s.Status().BatteryMWh
		rep, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Errorf("%s: json.Marshal of the zero-slot report: %v", policy, err)
		}
		if rep.BacklogMaxMWh != 0 || rep.BacklogMeanMWh != 0 {
			t.Errorf("%s: backlog max/mean = %g/%g, want 0/0", policy, rep.BacklogMaxMWh, rep.BacklogMeanMWh)
		}
		if rep.BatteryMinMWh != level || rep.BatteryMaxMWh != level {
			t.Errorf("%s: battery extremes [%g, %g], want the level %g as both",
				policy, rep.BatteryMinMWh, rep.BatteryMaxMWh, level)
		}
	}
}

// twoUnitFleet is the small fleet the report tests run with, so the
// generation totals are live.
var twoUnitFleet = []UnitSpec{
	{CapacityMW: 0.5, MinLoadFrac: 0.3, FuelUSDPerMWh: 38, StartupUSD: 20, CO2KgPerMWh: 700},
	{CapacityMW: 0.25, FuelUSDPerMWh: 45, StartupLagSlots: 1, CO2KgPerMWh: 500},
}

// scrub is the report's sub-1e-9 zero scrub.
func scrub(v float64) float64 {
	if v > -1e-9 && v < 1e-9 {
		return 0
	}
	return v
}

// TestReportMatchesSlotOutcomes: the report's battery extremes, backlog
// maximum and total cost are exactly what the slots StepReplay returns
// add up to — the battery extremes range over every post-slot level,
// the backlog maximum over every post-slot backlog, and the total is
// the in-order sum of the slot costs — bit for bit after the report's
// zero scrub, for every policy, with and without a fleet.
func TestReportMatchesSlotOutcomes(t *testing.T) {
	traces := dayTraces(t, 7)
	fleet := DefaultOptions()
	fleet.Fleet = twoUnitFleet
	for _, opts := range []Options{DefaultOptions(), fleet} {
		for _, policy := range allPolicies {
			var lo, hi, backlogMax, cost float64
			_, rep := replayReport(t, policy, opts, traces, func(out *SlotOutcome) {
				if out.Slot == 0 {
					lo, hi = out.Battery, out.Battery
				}
				lo, hi = min(lo, out.Battery), max(hi, out.Battery)
				backlogMax = max(backlogMax, out.BacklogAfter)
				cost += out.CostUSD
			})
			name := fmt.Sprintf("%s (%d units)", policy, len(opts.Fleet))
			for _, c := range []struct {
				field     string
				got, want float64
			}{
				{"BatteryMinMWh", rep.BatteryMinMWh, lo},
				{"BatteryMaxMWh", rep.BatteryMaxMWh, hi},
				{"BacklogMaxMWh", rep.BacklogMaxMWh, backlogMax},
				{"TotalCostUSD", rep.TotalCostUSD, cost},
			} {
				if math.Float64bits(c.got) != math.Float64bits(scrub(c.want)) {
					t.Errorf("%s: report %s = %v, slot outcomes give %v", name, c.field, c.got, c.want)
				}
			}
		}
	}
}

// TestStatusMatchesFinish: at the last slot, Status carries every total
// it shares with the Finish report — a field of the same name, plus
// Slot/Slots and Unavailable/AvailabilityViolations — with the report's
// value once the report's sub-1e-9 zero scrub is applied, for every
// policy, with a fleet so the generation totals are live.
func TestStatusMatchesFinish(t *testing.T) {
	traces := dayTraces(t, 3)
	opts := DefaultOptions()
	opts.Fleet = twoUnitFleet
	renamed := map[string]string{"Slot": "Slots", "Unavailable": "AvailabilityViolations"}
	for _, policy := range allPolicies {
		st, rep := replayReport(t, policy, opts, traces, nil)
		sv, rv := reflect.ValueOf(st), reflect.ValueOf(*rep)
		shared := 0
		for i := 0; i < sv.NumField(); i++ {
			name := sv.Type().Field(i).Name
			if r, ok := renamed[name]; ok {
				name = r
			}
			f, ok := rv.Type().FieldByName(name)
			if !ok {
				continue
			}
			shared++
			got, want := sv.Field(i), rv.FieldByIndex(f.Index)
			switch got.Kind() {
			case reflect.Float64:
				if math.Float64bits(scrub(got.Float())) != math.Float64bits(want.Float()) {
					t.Errorf("%s: Status %s = %v, report has %v", policy, sv.Type().Field(i).Name, got.Float(), want.Float())
				}
			case reflect.Int:
				if got.Int() != want.Int() {
					t.Errorf("%s: Status %s = %d, report has %d", policy, sv.Type().Field(i).Name, got.Int(), want.Int())
				}
			default:
				t.Fatalf("%s: unexpected kind %s", name, got.Kind())
			}
		}
		if shared != 20 {
			t.Errorf("Status shares %d fields with Report, want 20", shared)
		}
	}
}
