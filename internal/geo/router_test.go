package geo

import (
	"math"
	"math/rand"
	"testing"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// routerSet builds a minimal synthetic set for router unit tests; the
// greedy router reads only DemandDS and PriceRT.
func routerSet(ds, rt []float64) *trace.Set {
	return &trace.Set{
		DemandDS: trace.FromValues("dds", "MWh", ds),
		PriceRT:  trace.FromValues("prt", "USD/MWh", rt),
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
	routed := routeGreedy(sites, sets, 1, nil)

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
	routed := routeGreedy(sites, sets, 1, nil)
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
	routed := routeGreedy(sites, sets, 1, nil)
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
	routed := routeGreedy(sites, sets, 1, nil)
	for i, v := range routed[0] {
		if v != sets[0].DemandDS.At(i) {
			t.Fatalf("slot %d: single-site routing changed demand: %g", i, v)
		}
	}
}

// routerFleet builds an n-site synthetic fleet over H slots for the
// chunking parity test: prices drawn from a few levels so they tie,
// demands with zeros among them, caps that bind, an uncapped importer
// (PeakMW 0) and penalties from none to prohibitive.
func routerFleet(n, H int, seed int64) ([]SiteSpec, []*trace.Set) {
	r := rand.New(rand.NewSource(seed))
	levels := []float64{20, 40, 40, 55, 100}
	peaks := []float64{0, 0.5, 1.2, 1.5, 3}
	penalties := []float64{0, 1, 5, 5, 30}
	sites := make([]SiteSpec, n)
	sets := make([]*trace.Set, n)
	for s := range sites {
		sites[s] = SiteSpec{
			Options:                engine.Options{PeakMW: peaks[r.Intn(len(peaks))]},
			ImportPenaltyUSDPerMWh: penalties[r.Intn(len(penalties))],
		}
		ds, rt := make([]float64, H), make([]float64, H)
		for i := range ds {
			if r.Intn(5) > 0 {
				ds[i] = 2 * r.Float64()
			}
			rt[i] = levels[r.Intn(len(levels))]
		}
		sets[s] = routerSet(ds, rt)
	}
	return sites, sets
}

// The greedy router resets its state every slot, so splitting the
// horizon into chunks on the pool must give the whole-horizon routing
// bit for bit: every fleet size from 1 to 8, every chunk count (so every
// chunk boundary), and every pool width.
func TestGeoRouterChunksMatchWholeHorizon(t *testing.T) {
	const H = 24
	for n := 1; n <= 8; n++ {
		sites, sets := routerFleet(n, H, int64(n))
		want := routeGreedyChunks(sites, sets, 1, nil, 1)
		for chunks := 1; chunks <= H+1; chunks++ {
			for _, parallel := range []int{1, 2, 8} {
				got := routeGreedyChunks(sites, sets, parallel, nil, chunks)
				for s := range want {
					for i := range want[s] {
						if math.Float64bits(got[s][i]) != math.Float64bits(want[s][i]) {
							t.Fatalf("%d sites, %d chunks, parallel %d: site %d slot %d routed %v, want %v",
								n, chunks, parallel, s, i, got[s][i], want[s][i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkRouteGreedy times the greedy router over an 8-site month
// (744 slots), the routing phase of a geo run, on the suite pool at
// GOMAXPROCS width. The traces are generated outside the timer.
func BenchmarkRouteGreedy(b *testing.B) {
	sites := testSites(b, 8, 31)
	sets := make([]*trace.Set, len(sites))
	for s := range sites {
		tr, err := engine.GenerateTraces(sites[s].Trace)
		if err != nil {
			b.Fatal(err)
		}
		sets[s] = tr.View()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		routeGreedy(sites, sets, 0, nil)
	}
}
