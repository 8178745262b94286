package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// allPolicies is every policy arm the engine can instantiate.
var allPolicies = []Policy{
	PolicySmartDPSS, PolicyImpatient, PolicyOfflineOptimal,
	PolicyOfflineHorizon, PolicyLookahead, PolicyLyapunov,
}

// replayReport runs policy over traces through a replay session and
// returns the session's last Status next to its Finish report.
func replayReport(t *testing.T, policy Policy, opts Options, traces *Traces) (SessionStatus, *Report) {
	t.Helper()
	s, err := NewReplaySession(policy, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.StepReplay(); err != nil {
			t.Fatalf("%s slot %d: %v", policy, s.Slot(), err)
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

// TestReportIgnoresKeepSeries: KeepSeries adds the three per-slot series
// to the report and changes nothing else — in particular not the battery
// extremes, which range over every post-slot level either way.
func TestReportIgnoresKeepSeries(t *testing.T) {
	traces := dayTraces(t, 7)
	for _, policy := range allPolicies {
		opts := DefaultOptions()
		_, without := replayReport(t, policy, opts, traces)
		opts.KeepSeries = true
		_, with := replayReport(t, policy, opts, traces)
		if len(with.BatterySeries) != traces.Horizon() {
			t.Fatalf("%s: %d battery series points, want %d", policy, len(with.BatterySeries), traces.Horizon())
		}
		lo, hi := with.BatterySeries[0], with.BatterySeries[0]
		for _, v := range with.BatterySeries {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if with.BatteryMinMWh != lo || with.BatteryMaxMWh != hi {
			t.Errorf("%s: battery extremes [%g, %g], series ranges over [%g, %g]",
				policy, with.BatteryMinMWh, with.BatteryMaxMWh, lo, hi)
		}
		with.CostSeries, with.BacklogSeries, with.BatterySeries = nil, nil, nil
		if a, b := reportJSON(t, without), reportJSON(t, with); a != b {
			t.Errorf("%s: report depends on KeepSeries beyond the series:\n off: %s\n  on: %s", policy, a, b)
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
	opts.Fleet = []UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.3, FuelUSDPerMWh: 38, StartupUSD: 20, CO2KgPerMWh: 700},
		{CapacityMW: 0.25, FuelUSDPerMWh: 45, StartupLagSlots: 1, CO2KgPerMWh: 500},
	}
	renamed := map[string]string{"Slot": "Slots", "Unavailable": "AvailabilityViolations"}
	for _, policy := range allPolicies {
		st, rep := replayReport(t, policy, opts, traces)
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
				v := got.Float()
				if v > -1e-9 && v < 1e-9 {
					v = 0
				}
				if math.Float64bits(v) != math.Float64bits(want.Float()) {
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
