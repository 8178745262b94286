package core

import (
	"testing"

	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/sim"
)

// commitTestController builds a controller with one lag-free unit whose
// cold start is only recoverable over many profitable slots, and primes
// its coarse-boundary state so the commitment lookahead sees a demand
// envelope worth serving.
func commitTestController(t *testing.T, window int) *Controller {
	t.Helper()
	p := DefaultParams()
	p.CommitWindow = window
	p.Fleet = []generator.Params{{
		CapacityMWh:   1.0,
		MinLoadMWh:    0.2,
		FuelUSDPerMWh: 40,
		StartupUSD:    500, // recoverable over ~50 profitable slots, never over 2
	}}
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	c.PlanCoarse(sim.CoarseObs{
		Slot: 720, Slots: 24,
		PriceLT: 60, DemandDS: 1.5, DemandDT: 0.2, Renewable: 0,
		Battery: 0.3,
	})
	return c
}

// commitObs is a fine-slot observation near the end of a 744-slot trace
// with the unit off but startable.
func commitObs(slot, horizon int) *sim.FineObs {
	return &sim.FineObs{
		Slot: slot, Horizon: horizon,
		PriceRT: 55, DemandDS: 1.5, DemandDT: 0.2,
		RTHeadroom: 2, SdtMax: 1, Smax: 4,
		GenUnits: []generator.UnitObs{{
			MinMWh: 0.2, MaxMWh: 1.0, RequestMax: 1.0,
		}},
	}
}

// TestCommitWindowClampedAtHorizon is the last-day-boundary regression:
// with W = 100 slots of projected profit but only 2 slots left in the
// trace, the commitment arm must not start the unit — the 100-slot
// margin would be earned from slots that never execute, and the startup
// cost could never be recovered. Before the clamp the arm committed
// here; with it the projection window shrinks to the remaining horizon.
func TestCommitWindowClampedAtHorizon(t *testing.T) {
	c := commitTestController(t, 100)
	dec := c.PlanFine(commitObs(742, 744))
	for ui, g := range dec.GenerateUnits {
		if g > 0 {
			t.Fatalf("unit %d dispatched %g MWh with only 2 slots left (W=100 unclamped)", ui, g)
		}
	}
}

// TestCommitWindowUnclampedFarFromHorizon pins the contrast: the same
// observation mid-trace (full window available) must commit the unit —
// proving the clamp, not some other condition, is what blocks the start
// at the boundary.
func TestCommitWindowUnclampedFarFromHorizon(t *testing.T) {
	c := commitTestController(t, 100)
	dec := c.PlanFine(commitObs(300, 744))
	total := 0.0
	for _, g := range dec.GenerateUnits {
		total += g
	}
	if total <= 0 {
		t.Fatal("unit not dispatched mid-trace: the commitment economics of this fixture are broken")
	}
}

// TestCommitWindowUnknownHorizonKeepsFullWindow covers hand-built
// observations (Horizon == 0): the clamp must not engage when the
// horizon is unknown.
func TestCommitWindowUnknownHorizonKeepsFullWindow(t *testing.T) {
	c := commitTestController(t, 100)
	dec := c.PlanFine(commitObs(742, 0))
	total := 0.0
	for _, g := range dec.GenerateUnits {
		total += g
	}
	if total <= 0 {
		t.Fatal("unknown horizon clamped the window: zero Horizon must mean no clamp")
	}
}
