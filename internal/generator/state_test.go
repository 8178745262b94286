package generator

import (
	"reflect"
	"strings"
	"testing"
)

// driveUnit runs a unit through a start (paying lag and startup cost)
// and a few dispatch slots so every mutable field is non-zero.
func driveUnit(t *testing.T, g *Generator) {
	t.Helper()
	for i := 0; i < 4; i++ {
		g.Tick()
		g.Dispatch(0.4)
	}
	if g.EnergyTotal() == 0 || g.Starts() == 0 {
		t.Fatalf("unit did not run: energy=%g starts=%d", g.EnergyTotal(), g.Starts())
	}
}

func TestGeneratorStateRoundTrip(t *testing.T) {
	p := testParams()
	p.StartupLagSlots = 1
	p.CO2KgPerMWh = 500
	mk := func() *Generator {
		g, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	ref := mk()
	driveUnit(t, ref)
	snap := ref.State()
	if !snap.Running || snap.EnergyMWh == 0 || snap.StartupUSD == 0 || snap.CO2Kg == 0 {
		t.Fatalf("snapshot missed state: %+v", snap)
	}

	fresh := mk()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.State() != snap {
		t.Fatalf("restored state %+v, want %+v", fresh.State(), snap)
	}

	// The restored unit must evolve identically to the original.
	refOut := ref.Dispatch(0.6)
	freshOut := fresh.Dispatch(0.6)
	if refOut != freshOut {
		t.Fatalf("post-restore dispatch diverged: %+v vs %+v", refOut, freshOut)
	}
}

func TestGeneratorRestoreRejectsCorruptState(t *testing.T) {
	p := testParams()
	p.StartupLagSlots = 2
	g, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*State)
		want   string
	}{
		{"negative countdown", func(s *State) { s.Countdown = -1 }, "countdown"},
		{"countdown beyond lag", func(s *State) { s.Countdown = 3 }, "countdown"},
	}
	for _, tc := range cases {
		s := g.State()
		tc.mutate(&s)
		err := g.Restore(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore() = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestFleetStateRoundTrip(t *testing.T) {
	mk := func() *Fleet {
		f, err := NewFleet(fleetSpecs())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	ref := mk()
	for i := 0; i < 3; i++ {
		ref.Tick()
		ref.Dispatch([]float64{0.5, 0, 0.7})
	}
	states := ref.State()
	if len(states) != ref.Size() {
		t.Fatalf("State() returned %d entries, fleet has %d units", len(states), ref.Size())
	}

	fresh := mk()
	if err := fresh.Restore(states); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.State(), states) {
		t.Fatalf("restored states %+v, want %+v", fresh.State(), states)
	}
	refOuts := ref.Dispatch([]float64{0.5, 0.25, 0})
	freshOuts := fresh.Dispatch([]float64{0.5, 0.25, 0})
	for i := range refOuts {
		if refOuts[i] != freshOuts[i] {
			t.Fatalf("unit %d diverged after restore: %+v vs %+v", i, refOuts[i], freshOuts[i])
		}
	}
}

func TestFleetStateEmptyAndMismatch(t *testing.T) {
	empty, err := NewFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.State() != nil {
		t.Fatal("empty fleet must snapshot to nil")
	}
	if err := empty.Restore(nil); err != nil {
		t.Fatalf("empty fleet restore: %v", err)
	}

	f, err := NewFleet(fleetSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(make([]State, 1)); err == nil {
		t.Fatal("unit-count mismatch accepted")
	}
	// A corrupt per-unit state surfaces the unit index.
	states := f.State()
	states[1].Countdown = -1
	if err := f.Restore(states); err == nil || !strings.Contains(err.Error(), "unit 1") {
		t.Fatalf("corrupt unit state: Restore() = %v, want unit 1 error", err)
	}
}
