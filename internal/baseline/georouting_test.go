package baseline

import (
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/trace"
)

// geoTestSets builds n per-site trace sets from the shared generator
// defaults, spreading the grid prices multiplicatively so the sites have
// something to arbitrage. scale[i] multiplies site i's PriceLT/PriceRT.
func geoTestSets(t *testing.T, days int, scale []float64) []*trace.Set {
	t.Helper()
	sets := make([]*trace.Set, len(scale))
	for i, k := range scale {
		set := testTraces(t, days)
		set.PriceLT.Scale(k)
		set.PriceRT.Scale(k)
		sets[i] = set
	}
	return sets
}

// horizonObjective solves the independent single-site staircase LP and
// returns its optimal objective.
func horizonObjective(t *testing.T, cfg Config, set *trace.Set) float64 {
	t.Helper()
	o, err := NewOfflineHorizon(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	return o.st.sol.Objective
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// With one site the coupling row forces out == in, and any positive
// penalty makes self-routing strictly costly, so the joint optimum must
// equal the independent horizon solve.
func TestGeoOneSiteMatchesHorizonObjective(t *testing.T) {
	cfg := DefaultConfig()
	set := testTraces(t, 2)
	want := horizonObjective(t, cfg, set)

	plan, err := SolveGeoHorizon([]GeoSite{{Config: cfg, Set: set, ImportPenaltyUSD: 25}})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(plan.Objective, want); d > 1e-6 {
		t.Fatalf("one-site geo objective %.9f vs horizon %.9f (rel %g)", plan.Objective, want, d)
	}
	if plan.ImportMWh[0] > 1e-6 || plan.ExportMWh[0] > 1e-6 {
		t.Fatalf("one-site solve routed energy: in=%g out=%g", plan.ImportMWh[0], plan.ExportMWh[0])
	}
	for i, v := range plan.RoutedDS[0] {
		if math.Abs(v-set.DemandDS.At(i)) > 1e-6 {
			t.Fatalf("slot %d routed demand %g differs from home %g", i, v, set.DemandDS.At(i))
		}
	}
}

// A penalty above every possible price gap makes routing strictly
// unprofitable, so the coupled solve must decompose into the sum of the
// independent per-site solves.
func TestGeoProhibitivePenaltyMatchesIndependentSolves(t *testing.T) {
	cfg := DefaultConfig()
	sets := geoTestSets(t, 2, []float64{0.7, 1.5})

	want := 0.0
	sites := make([]GeoSite, len(sets))
	for i, set := range sets {
		want += horizonObjective(t, cfg, set)
		sites[i] = GeoSite{Config: cfg, Set: set, ImportPenaltyUSD: 10000}
	}

	plan, err := SolveGeoHorizon(sites)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(plan.Objective, want); d > 1e-6 {
		t.Fatalf("coupled objective %.9f vs independent sum %.9f (rel %g)", plan.Objective, want, d)
	}
	for s := range sites {
		if plan.ImportMWh[s] > 1e-6 || plan.ExportMWh[s] > 1e-6 {
			t.Fatalf("site %d routed energy under prohibitive penalty: in=%g out=%g",
				s, plan.ImportMWh[s], plan.ExportMWh[s])
		}
	}
}

// With a real price gap and a small penalty, routing must strictly
// improve on the independent solves and actually move energy.
func TestGeoRoutingReducesCostUnderPriceDivergence(t *testing.T) {
	cfg := DefaultConfig()
	sets := geoTestSets(t, 2, []float64{0.6, 1.6})

	independent := 0.0
	sites := make([]GeoSite, len(sets))
	for i, set := range sets {
		independent += horizonObjective(t, cfg, set)
		sites[i] = GeoSite{Config: cfg, Set: set, ImportPenaltyUSD: 1}
	}

	plan, err := SolveGeoHorizon(sites)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective >= independent-1e-6 {
		t.Fatalf("coupled objective %.6f did not beat independent sum %.6f", plan.Objective, independent)
	}
	moved := plan.ImportMWh[0] + plan.ImportMWh[1]
	if moved <= 1e-6 {
		t.Fatalf("expected routed energy, got total imports %g", moved)
	}
	if plan.PenaltyUSD <= 0 {
		t.Fatalf("expected positive routing penalty, got %g", plan.PenaltyUSD)
	}
	// Conservation: total post-routing demand equals total home demand.
	for i := 0; i < sets[0].Horizon(); i++ {
		home, routed := 0.0, 0.0
		for s := range sets {
			home += sets[s].DemandDS.At(i)
			routed += plan.RoutedDS[s][i]
		}
		if math.Abs(home-routed) > 1e-6 {
			t.Fatalf("slot %d demand not conserved: home %g routed %g", i, home, routed)
		}
	}
}

// A routing cap must bound every site's post-routing demand even when
// the price gap would otherwise justify moving more.
func TestGeoRouteCapBindsRouting(t *testing.T) {
	cfg := DefaultConfig()
	sets := geoTestSets(t, 2, []float64{0.6, 1.6})

	cap := 0.0
	for i := 0; i < sets[0].Horizon(); i++ {
		cap = math.Max(cap, sets[0].DemandDS.At(i))
	}
	cap *= 1.1
	sites := []GeoSite{
		{Config: cfg, Set: sets[0], ImportPenaltyUSD: 1, RouteCapMWh: cap},
		{Config: cfg, Set: sets[1], ImportPenaltyUSD: 1, RouteCapMWh: cap},
	}

	plan, err := SolveGeoHorizon(sites)
	if err != nil {
		t.Fatal(err)
	}
	for s := range sites {
		for i, v := range plan.RoutedDS[s] {
			if v > cap+1e-6 {
				t.Fatalf("site %d slot %d routed demand %g exceeds cap %g", s, i, v, cap)
			}
		}
	}
}

func TestGeoSolveValidation(t *testing.T) {
	if _, err := SolveGeoHorizon(nil); err == nil {
		t.Fatal("expected error for empty site list")
	}
	cfg := DefaultConfig()
	a := testTraces(t, 2)
	b := testTraces(t, 1)
	_, err := SolveGeoHorizon([]GeoSite{
		{Config: cfg, Set: a},
		{Config: cfg, Set: b},
	})
	if err == nil {
		t.Fatal("expected error for mismatched horizons")
	}
	_, err = SolveGeoHorizon([]GeoSite{{Config: cfg, Set: a, ImportPenaltyUSD: -1}})
	if err == nil {
		t.Fatal("expected error for negative penalty")
	}
	_, err = SolveGeoHorizon([]GeoSite{{Config: cfg, Set: a, RouteCapMWh: -1}})
	if err == nil {
		t.Fatal("expected error for negative route cap")
	}
}
