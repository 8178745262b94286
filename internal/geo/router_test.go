package geo

import (
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// routerSet builds a minimal synthetic set for router unit tests; the
// greedy router reads only DemandDS and PriceRT.
func routerSet(ds, rt []float64) *trace.Set {
	return &trace.Set{
		DemandDS: trace.FromValues("dds", "MWh", 60, ds),
		PriceRT:  trace.FromValues("prt", "USD/MWh", 60, rt),
	}
}

func TestGreedyMovesTowardCheapSite(t *testing.T) {
	sites := []SiteSpec{
		{Name: "cheap", Options: engine.Options{PeakMW: 2}, ImportPenaltyUSDPerMWh: 5},
		{Name: "dear", Options: engine.Options{PeakMW: 2}, ImportPenaltyUSDPerMWh: 5},
	}
	sets := []*trace.Set{
		routerSet([]float64{1.0, 1.0}, []float64{20, 20}),
		routerSet([]float64{1.5, 1.5}, []float64{100, 20}),
	}
	routed := routeGreedy(sites, sets, 1)

	// Slot 0: the 80 USD gap beats the 5 USD penalty, so the expensive
	// site exports until the cheap site hits its 2 MWh routing cap.
	if got := routed[0][0]; math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("cheap site slot 0 routed %g, want 2 (cap-bound import)", got)
	}
	if got := routed[1][0]; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("dear site slot 0 routed %g, want 0.5", got)
	}
	// Slot 1: equal prices, no gap, nothing moves.
	if routed[0][1] != 1.0 || routed[1][1] != 1.5 {
		t.Fatalf("slot 1 moved demand without a price gap: %g, %g", routed[0][1], routed[1][1])
	}
	// Conservation in every slot.
	for i := 0; i < 2; i++ {
		home := sets[0].DemandDS.At(i) + sets[1].DemandDS.At(i)
		got := routed[0][i] + routed[1][i]
		if math.Abs(home-got) > 1e-9 {
			t.Fatalf("slot %d demand not conserved: %g vs %g", i, got, home)
		}
	}
}

func TestGreedyRespectsProhibitivePenalty(t *testing.T) {
	sites := []SiteSpec{
		{Name: "cheap", Options: engine.Options{PeakMW: 10}, ImportPenaltyUSDPerMWh: 500},
		{Name: "dear", Options: engine.Options{PeakMW: 10}, ImportPenaltyUSDPerMWh: 500},
	}
	sets := []*trace.Set{
		routerSet([]float64{1.0}, []float64{20}),
		routerSet([]float64{1.5}, []float64{100}),
	}
	routed := routeGreedy(sites, sets, 1)
	if routed[0][0] != 1.0 || routed[1][0] != 1.5 {
		t.Fatalf("penalty above the price gap still moved demand: %g, %g", routed[0][0], routed[1][0])
	}
}

func TestGreedyOrderIsDeterministicOnPriceTies(t *testing.T) {
	// Three equally cheap importers: the exporter must fill them in site
	// order (index tie-break), not map order or arrival order.
	sites := []SiteSpec{
		{Name: "a", Options: engine.Options{PeakMW: 1.2}, ImportPenaltyUSDPerMWh: 1},
		{Name: "b", Options: engine.Options{PeakMW: 1.2}, ImportPenaltyUSDPerMWh: 1},
		{Name: "c", Options: engine.Options{PeakMW: 1.2}, ImportPenaltyUSDPerMWh: 1},
		{Name: "x", Options: engine.Options{PeakMW: 10}, ImportPenaltyUSDPerMWh: 1},
	}
	sets := []*trace.Set{
		routerSet([]float64{1.0}, []float64{20}),
		routerSet([]float64{1.0}, []float64{20}),
		routerSet([]float64{1.0}, []float64{20}),
		routerSet([]float64{0.5}, []float64{100}),
	}
	routed := routeGreedy(sites, sets, 1)
	// 0.5 MWh exportable; each importer has 0.2 MWh spare under its
	// cap, so a and b fill to their caps in index order and c takes the
	// final 0.1.
	if math.Abs(routed[0][0]-1.2) > 1e-9 {
		t.Fatalf("site a routed %g, want 1.2", routed[0][0])
	}
	if math.Abs(routed[1][0]-1.2) > 1e-9 {
		t.Fatalf("site b routed %g, want 1.2", routed[1][0])
	}
	if math.Abs(routed[2][0]-1.1) > 1e-9 {
		t.Fatalf("site c routed %g, want 1.1", routed[2][0])
	}
	if math.Abs(routed[3][0]-0.0) > 1e-9 {
		t.Fatalf("site x routed %g, want 0", routed[3][0])
	}
}

func TestGreedySingleSiteIsIdentity(t *testing.T) {
	sites := []SiteSpec{{Name: "solo", Options: engine.Options{PeakMW: 2}, ImportPenaltyUSDPerMWh: 5}}
	sets := []*trace.Set{routerSet([]float64{1.0, 0.5}, []float64{20, 100})}
	routed := routeGreedy(sites, sets, 1)
	for i, v := range routed[0] {
		if v != sets[0].DemandDS.At(i) {
			t.Fatalf("slot %d: single-site routing changed demand: %g", i, v)
		}
	}
}
