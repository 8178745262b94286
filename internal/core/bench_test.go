package core

import (
	"slices"
	"testing"

	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/sim"
)

// The controller-planning rungs: one P5 pair (solveBest) and one fine
// slot of planning (PlanFine, with PlanCoarse at each boundary and the
// outcome fed back), with and without BenchmarkFleetDispatch's fleet.
// They replay the controller inputs of one recorded SmartDPSS month, so
// they time the planner alone, beneath BenchmarkSessionSlot's slot
// physics. Each runs one warm-up month before b.Loop, which grows every
// scratch buffer: the timed loop allocates nothing. The P5 pair's
// ablation partner, BenchmarkAblationP5LP, solves the same pairs on the
// tests' simplex model of P5.

// benchFleet is BenchmarkFleetDispatch's four-unit fleet in hourly-slot
// units, run under its 12-slot commitment window.
func benchFleet() []generator.Params {
	return []generator.Params{
		{CapacityMWh: 0.5, MinLoadMWh: 0.15, FuelUSDPerMWh: 38, StartupUSD: 20, CO2KgPerMWh: 700},
		{CapacityMWh: 0.25, MinLoadMWh: 0.05, FuelUSDPerMWh: 45, StartupUSD: 10, CO2KgPerMWh: 500},
		{CapacityMWh: 0.25, MinLoadMWh: 0.05, FuelUSDPerMWh: 52, FuelQuadUSD: 4, CO2KgPerMWh: 400},
		{CapacityMWh: 0.1, FuelUSDPerMWh: 60, StartupLagSlots: 1, CO2KgPerMWh: 300},
	}
}

// plannerMonth is one SmartDPSS month's controller inputs in call order.
type plannerMonth struct {
	params Params
	coarse []sim.CoarseObs // one per coarse boundary (every T slots)
	fine   []sim.FineObs   // one per slot
	out    []sim.Outcome   // one per slot
	pairs  []p5Input       // each slot's P5 instance before the fleet arm
}

// monthRecorder wraps a Controller and records what the session feeds it.
type monthRecorder struct {
	*Controller
	m *plannerMonth
}

func (r monthRecorder) PlanCoarse(obs sim.CoarseObs) float64 {
	r.m.coarse = append(r.m.coarse, obs)
	return r.Controller.PlanCoarse(obs)
}

func (r monthRecorder) PlanFine(obs *sim.FineObs) sim.Decision {
	rec := *obs
	rec.GenUnits = slices.Clone(obs.GenUnits) // the fleet reuses its view buffer
	r.m.fine = append(r.m.fine, rec)
	dec := r.Controller.PlanFine(obs)
	if len(r.specs) == 0 {
		r.m.pairs = append(r.m.pairs, r.scr.in)
	}
	return dec
}

func (r monthRecorder) RecordOutcome(out sim.Outcome) {
	r.m.out = append(r.m.out, out)
	r.Controller.RecordOutcome(out)
}

// recordMonth runs SmartDPSS over a 31-day trace with the given fleet
// (nil for none) and returns its recorded inputs.
func recordMonth(tb testing.TB, fleet []generator.Params) *plannerMonth {
	tb.Helper()
	p := DefaultParams()
	if fleet != nil {
		p.Fleet, p.CommitWindow = fleet, 12
	}
	c, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	m := &plannerMonth{params: p}
	if _, err := sim.Run(simConfig(p), testTraces(tb, 31), monthRecorder{c, m}); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkSolveBest times one P5 pair, the battery-free and the
// battery-frozen solve with the UPS fixed charge priced, over the month's
// per-slot instances of a fleet-free SmartDPSS run.
func BenchmarkSolveBest(b *testing.B) {
	m := recordMonth(b, nil)
	c, err := New(m.params)
	if err != nil {
		b.Fatal(err)
	}
	var res p5Result
	for i := range m.pairs {
		c.solveBest(&m.pairs[i], &res)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.solveBest(&m.pairs[i%len(m.pairs)], &res)
		i++
	}
}

// BenchmarkAblationP5LP times BenchmarkSolveBest's P5 pairs solved on the
// tests' simplex model of P5 instead: the battery-free and the
// battery-frozen LP, each solved in full, with the UPS fixed charge
// priced as solveBest prices it.
func BenchmarkAblationP5LP(b *testing.B) {
	m := recordMonth(b, nil)
	var s p5LPScratch
	for i := range m.pairs {
		if _, err := s.pairValue(&m.params, &m.pairs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := s.pairValue(&m.params, &m.pairs[i%len(m.pairs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkPlanFine times one fine slot of SmartDPSS planning without
// on-site generation.
func BenchmarkPlanFine(b *testing.B) { benchPlanFine(b, nil) }

// BenchmarkPlanFineFleet times one fine slot of SmartDPSS planning with
// BenchmarkFleetDispatch's fleet: the two-phase commitment arm and its
// candidate P5 pairs.
func BenchmarkPlanFineFleet(b *testing.B) { benchPlanFine(b, benchFleet()) }

func benchPlanFine(b *testing.B, fleet []generator.Params) {
	m := recordMonth(b, fleet)
	c, err := New(m.params)
	if err != nil {
		b.Fatal(err)
	}
	T, i := m.params.T, 0
	slot := func() {
		k := i % len(m.fine)
		if k%T == 0 {
			c.PlanCoarse(m.coarse[k/T])
		}
		c.PlanFine(&m.fine[k])
		c.RecordOutcome(m.out[k])
		i++
	}
	for range m.fine {
		slot()
	}
	b.ReportAllocs()
	for b.Loop() {
		slot()
	}
}
