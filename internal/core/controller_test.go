package core

import (
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/pricing"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/solar"
	"github.com/smartdpss/smartdpss/internal/trace"
	"github.com/smartdpss/smartdpss/internal/workload"
)

// testTraces builds a deterministic paper-like trace set.
func testTraces(t testing.TB, days int) *trace.Set {
	t.Helper()
	wc := workload.Defaults()
	wc.Days = days
	ds, dt, err := workload.Generate(wc)
	if err != nil {
		t.Fatal(err)
	}
	sc := solar.Defaults()
	sc.Days = days
	sun, err := solar.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	pc := pricing.Defaults()
	pc.Days = days
	lt, rt, err := pricing.Generate(pc)
	if err != nil {
		t.Fatal(err)
	}
	set := &trace.Set{DemandDS: ds, DemandDT: dt, Renewable: sun, PriceLT: lt, PriceRT: rt}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return set
}

// simConfig is the session configuration over the controller's plant.
func simConfig(p Params) sim.Config { return sim.Config{Plant: p.Plant, KeepSeries: true} }

func TestNewRejectsInvalidParams(t *testing.T) {
	p := DefaultParams()
	p.V = -1
	if _, err := New(p); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestPlanCoarseFreezesState(t *testing.T) {
	c, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.CoarseObs{
		Slot: 0, Slots: 24, PriceLT: 40,
		DemandDS: 1.0, Renewable: 0.2, Battery: 0.3, Backlog: 2.5,
	}
	c.PlanCoarse(obs)
	q, x, y := c.FrozenState()
	if q != 2.5 {
		t.Errorf("frozen Q = %g, want 2.5", q)
	}
	if y != 0 {
		t.Errorf("frozen Y = %g, want 0 (fresh controller)", y)
	}
	wantX := 0.3 - c.Params().XShift()
	if math.Abs(x-wantX) > 1e-12 {
		t.Errorf("frozen X = %g, want %g", x, wantX)
	}
}

func TestPlanCoarseDeficitPurchase(t *testing.T) {
	p := DefaultParams()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Weight positive (V·plt = 40 > Q+Y = 0): buy exactly the deficit.
	obs := sim.CoarseObs{
		Slot: 0, Slots: 24, PriceLT: 40,
		DemandDS: 1.0, Renewable: 0.2,
		Battery: p.Battery.MinLevelMWh, // empty battery: no contribution
	}
	gbef := c.PlanCoarse(obs)
	want := 24 * (1.0 - 0.2)
	if math.Abs(gbef-want) > 1e-9 {
		t.Errorf("gbef = %g, want %g", gbef, want)
	}
}

func TestPlanCoarseBangBangWhenQueuesDominate(t *testing.T) {
	p := DefaultParams()
	p.V = 0.01 // V·plt tiny: queue pressure wins
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.CoarseObs{
		Slot: 0, Slots: 24, PriceLT: 40,
		DemandDS: 0.5, Renewable: 0.2, Battery: 0.3,
		Backlog: 5.0, // V·plt = 0.4 < Q+Y = 5
	}
	gbef := c.PlanCoarse(obs)
	// The queue-pressure branch buys aggressively, capped at what the
	// system can consume (dds − r + backlog drain + battery headroom); it
	// must clearly exceed the deficit-only purchase of the normal branch.
	deficitOnly := 24 * (obs.DemandDS - obs.Renewable)
	if gbef <= deficitOnly {
		t.Errorf("gbef = %g, want above the deficit-only %g", gbef, deficitOnly)
	}
	if gbef > 24*p.PgridMWh+1e-9 {
		t.Errorf("gbef = %g exceeds the grid cap %g", gbef, 24*p.PgridMWh)
	}
	// Consumable estimate: 0.5 − 0.2 + drain(5/24 + ddt 0) + charge room.
	drain := 5.0 / 24
	if gbef < 24*(obs.DemandDS-obs.Renewable+drain)-1e-9 {
		t.Errorf("gbef = %g below demand+drain floor", gbef)
	}
}

func TestPlanCoarseDisabledLongTerm(t *testing.T) {
	p := DefaultParams()
	p.DisableLongTerm = true
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.CoarseObs{Slot: 0, Slots: 24, PriceLT: 40, DemandDS: 1.5}
	if gbef := c.PlanCoarse(obs); gbef != 0 {
		t.Errorf("gbef = %g, want 0 with DisableLongTerm", gbef)
	}
}

func TestPlanCoarseBatteryReducesPurchase(t *testing.T) {
	p := DefaultParams()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	empty := sim.CoarseObs{Slot: 0, Slots: 24, PriceLT: 40, DemandDS: 1.0,
		Battery: p.Battery.MinLevelMWh}
	full := empty
	full.Battery = p.Battery.CapacityMWh
	gEmpty := c.PlanCoarse(empty)
	gFull := c.PlanCoarse(full)
	if gFull >= gEmpty {
		t.Errorf("full battery should reduce the purchase: %g vs %g", gFull, gEmpty)
	}
}

func TestRecordOutcomeUpdatesY(t *testing.T) {
	p := DefaultParams() // ε = 0.5
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	c.RecordOutcome(sim.Outcome{ServedDT: 0, BacklogBefore: 1})
	if got := c.QueueY(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Y = %g after unserved backlog slot, want 0.5", got)
	}
	c.RecordOutcome(sim.Outcome{ServedDT: 0.2, BacklogBefore: 1})
	if got := c.QueueY(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Y = %g, want 0.8", got)
	}
	c.RecordOutcome(sim.Outcome{ServedDT: 5, BacklogBefore: 0})
	if got := c.QueueY(); got != 0 {
		t.Fatalf("Y = %g, want 0", got)
	}
}

func TestEndToEndSimulation(t *testing.T) {
	p := DefaultParams()
	set := testTraces(t, 7)
	ctrl, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(simConfig(p), set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slots != 7*24 {
		t.Fatalf("slots = %d, want %d", rep.Slots, 7*24)
	}
	if rep.TotalCostUSD <= 0 {
		t.Error("total cost must be positive")
	}
	if rep.UnservedMWh > 1e-6 {
		t.Errorf("unserved = %g MWh under benign traces, want 0", rep.UnservedMWh)
	}
	if rep.Availability < 1-1e-9 {
		t.Errorf("availability = %g, want 1", rep.Availability)
	}
	// Physical battery bounds (stronger than Theorem 2's conditions).
	if rep.BatteryMinMWh < p.Battery.MinLevelMWh-1e-9 {
		t.Errorf("battery dipped to %g below Bmin %g", rep.BatteryMinMWh, p.Battery.MinLevelMWh)
	}
	if rep.BatteryMaxMWh > p.Battery.CapacityMWh+1e-9 {
		t.Errorf("battery rose to %g above Bmax %g", rep.BatteryMaxMWh, p.Battery.CapacityMWh)
	}
}

func TestEndToEndBacklogWithinTheorem2Bound(t *testing.T) {
	p := DefaultParams()
	set := testTraces(t, 7)
	ctrl, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(simConfig(p), set, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2(3) bounds Q(τ) by Qmax = V·Pmax/T + Ddtmax for the exact
	// drift; the implemented algorithm freezes Q(t) for T slots (Sec. IV-A,
	// Corollary 1), so arrivals during one coarse interval can add up to
	// T·Ddtmax of slack before the frozen weights react. Assert the
	// freezing-aware bound and record the strict-bound excess.
	strict := p.QMax()
	bound := strict + float64(p.T)*p.DdtMaxMWh
	if rep.BacklogMaxMWh > bound+1e-9 {
		t.Errorf("max backlog %g exceeds freezing-aware bound %g", rep.BacklogMaxMWh, bound)
	}
	t.Logf("max backlog %.3f vs strict Qmax %.3f (freezing slack %.3f)",
		rep.BacklogMaxMWh, strict, rep.BacklogMaxMWh-strict)
}

func TestHigherVReducesCostRaisesDelay(t *testing.T) {
	set := testTraces(t, 14)
	run := func(v float64) *sim.Report {
		p := DefaultParams()
		p.V = v
		ctrl, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(simConfig(p), set, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	low := run(0.05)
	high := run(5)
	if high.TotalCostUSD >= low.TotalCostUSD {
		t.Errorf("V=5 cost $%.2f not below V=0.05 cost $%.2f (O(1/V) side)",
			high.TotalCostUSD, low.TotalCostUSD)
	}
	if high.MeanDelaySlots <= low.MeanDelaySlots {
		t.Errorf("V=5 delay %.2f not above V=0.05 delay %.2f (O(V) side)",
			high.MeanDelaySlots, low.MeanDelaySlots)
	}
}
