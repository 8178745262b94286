package geo

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/trace"
)

func testSites(t testing.TB, n, days int) []SiteSpec {
	t.Helper()
	sites := make([]SiteSpec, n)
	for i := range sites {
		tc := engine.DefaultTraceConfig()
		tc.Days = days
		opts := engine.DefaultOptions()
		if i > 0 {
			// Derived per-site seeds and a price spread so sites diverge;
			// site 0 stays the exact default scope (the legacy pin). The
			// market price cap scales with the site's prices.
			tc.Seed = tc.Seed + int64(i)*7919
			tc.PriceScale = 1 + 0.3*float64(i)
			opts.PmaxUSD *= tc.PriceScale
		}
		sites[i] = SiteSpec{
			Name:                   fmt.Sprintf("site-%d", i),
			Options:                opts,
			Trace:                  tc,
			ImportPenaltyUSDPerMWh: 5,
		}
	}
	return sites
}

func reportBytes(t *testing.T, rep *engine.Report) string {
	t.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep.String() + "\n" + string(js)
}

// A one-site geo run with no routing must reproduce the legacy
// single-site engine byte for byte, for every policy: the geo layer
// passes the generated traces through unmodified and steps the same
// replay session the batch path does.
func TestGeoOneSiteMatchesLegacy(t *testing.T) {
	policies := []engine.Policy{
		engine.PolicySmartDPSS,
		engine.PolicyImpatient,
		engine.PolicyOfflineOptimal,
		engine.PolicyOfflineHorizon,
	}
	for _, policy := range policies {
		t.Run(string(policy), func(t *testing.T) {
			opts := engine.DefaultOptions()
			tc := engine.DefaultTraceConfig()
			tc.Days = 7

			traces, err := engine.GenerateTraces(tc)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := engine.Simulate(policy, opts, traces)
			if err != nil {
				t.Fatal(err)
			}

			for _, router := range []Router{RouterNone, RouterGreedy} {
				res, err := Run(Config{
					Sites:  []SiteSpec{{Name: "solo", Options: opts, Trace: tc}},
					Policy: policy,
					Router: router,
				})
				if err != nil {
					t.Fatalf("router %s: %v", router, err)
				}
				got := reportBytes(t, res.Sites[0].Report)
				want := reportBytes(t, legacy)
				if got != want {
					t.Fatalf("router %s: one-site geo report differs from legacy:\n--- geo ---\n%s\n--- legacy ---\n%s",
						router, got, want)
				}
				if res.MovedMWh != 0 || res.RoutingPenaltyUSD != 0 {
					t.Fatalf("router %s: one-site run moved energy: %g MWh, %g USD",
						router, res.MovedMWh, res.RoutingPenaltyUSD)
				}
			}
		})
	}
}

// Per-site run-to-completion must be byte-identical at every
// parallelism level and for every router: results are reduced in fixed
// site order regardless of which worker runs which site.
func TestGeoParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		router Router
		days   int
	}{{RouterNone, 7}, {RouterGreedy, 7}, {RouterLP, 2}} {
		t.Run(string(tc.router), func(t *testing.T) {
			sites := testSites(t, 4, tc.days)
			var seq *Result
			var seqReports []string
			for _, parallel := range []int{1, 2, 8} {
				res, err := Run(Config{
					Sites:    sites,
					Policy:   engine.PolicySmartDPSS,
					Router:   tc.router,
					Parallel: parallel,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Reports compare as bytes; every other field by value.
				reports := make([]string, len(res.Sites))
				for s := range res.Sites {
					reports[s] = reportBytes(t, res.Sites[s].Report)
					res.Sites[s].Report = nil
				}
				if seq == nil {
					seq, seqReports = res, reports
					continue
				}
				for s := range reports {
					if reports[s] != seqReports[s] {
						t.Fatalf("parallel %d: site %d report differs from sequential", parallel, s)
					}
				}
				if !reflect.DeepEqual(res, seq) {
					t.Fatalf("parallel %d: result differs from sequential:\n%+v\n%+v", parallel, res, seq)
				}
			}
		})
	}
}

// The LP router must run end to end and conserve total demand across
// sites (the per-slot coupling row).
func TestGeoLPRouterRuns(t *testing.T) {
	sites := testSites(t, 2, 2)
	sites[0].Trace.PriceScale = 0.6
	sites[1].Trace.PriceScale = 1.6
	sites[1].Options.PmaxUSD = 240
	sites[0].ImportPenaltyUSDPerMWh = 1
	sites[1].ImportPenaltyUSDPerMWh = 1

	res, err := Run(Config{Sites: sites, Policy: engine.PolicySmartDPSS, Router: RouterLP})
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedMWh <= 0 {
		t.Fatal("expected the LP router to move demand under a 0.6/1.6 price spread")
	}
	var imp, exp float64
	for s := range res.Sites {
		imp += res.Sites[s].ImportedMWh
		exp += res.Sites[s].ExportedMWh
	}
	if diff := imp - exp; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("imports %g and exports %g do not balance", imp, exp)
	}
}

// Extra workers must come out of — and go back into — the shared suite
// budget, so nested fan-out cannot oversubscribe a run: however many
// tokens the budget holds, at most Parallel sites run at once (the
// caller plus Parallel−1 token holders), and every token comes back,
// after a failed run too.
func TestGeoReturnsSuiteTokens(t *testing.T) {
	const budget, parallel = 5, 3
	tokens := make(chan struct{}, budget)
	for i := 0; i < budget; i++ {
		tokens <- struct{}{}
	}
	// A watcher samples how many tokens are out while the runs proceed;
	// the test's cleanup stops it and waits for it to exit.
	var peak atomic.Int64
	stop := make(chan struct{})
	watched := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		<-watched
	})
	go func() {
		defer close(watched)
		for {
			if taken := int64(budget - len(tokens)); taken > peak.Load() {
				peak.Store(taken)
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	bad := testSites(t, 8, 7)
	bad[5].Options.CarbonUSDPerTon = -1
	for _, run := range []struct {
		sites []SiteSpec
		fails bool
	}{{testSites(t, 8, 7), false}, {bad, true}} {
		_, err := Run(Config{
			Sites:    run.sites,
			Policy:   engine.PolicySmartDPSS,
			Router:   RouterGreedy,
			Parallel: parallel,
			Tokens:   tokens,
		})
		if (err != nil) != run.fails {
			t.Fatalf("error %v, want failure %t", err, run.fails)
		}
		if got := len(tokens); got != budget {
			t.Fatalf("suite budget not restored: %d tokens, want %d (err %v)", got, budget, err)
		}
	}
	if p := peak.Load(); p > parallel-1 {
		t.Fatalf("%d tokens taken at once: more than Parallel=%d sites ran concurrently", p, parallel)
	}
}

// With several invalid sites, Run reports the lowest site index at every
// width, whichever site's worker fails first.
func TestGeoErrorNamesLowestSite(t *testing.T) {
	sites := testSites(t, 4, 2)
	sites[1].Options.CarbonUSDPerTon = -1
	sites[3].Options.CarbonUSDPerTon = -1
	for _, parallel := range []int{1, 2, 8} {
		_, err := Run(Config{
			Sites:    sites,
			Policy:   engine.PolicySmartDPSS,
			Router:   RouterGreedy,
			Parallel: parallel,
		})
		if !errors.Is(err, engine.ErrInvalidOptions) || !strings.HasPrefix(err.Error(), "geo: site 1: ") {
			t.Fatalf("parallel %d: error %v, want site 1's invalid options", parallel, err)
		}
	}
}

func TestGeoConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("expected error for empty site list")
	}
	sites := testSites(t, 2, 2)
	sites[1].Trace.Days = 3
	if _, err := Run(Config{Sites: sites, Policy: engine.PolicySmartDPSS}); err == nil {
		t.Fatal("expected error for mismatched days")
	}
	sites = testSites(t, 1, 2)
	if _, err := Run(Config{Sites: sites, Policy: engine.PolicySmartDPSS, Router: Router("warp")}); err == nil {
		t.Fatal("expected error for unknown router")
	}
	sites[0].ImportPenaltyUSDPerMWh = -1
	if _, err := Run(Config{Sites: sites, Policy: engine.PolicySmartDPSS}); err == nil {
		t.Fatal("expected error for negative penalty")
	}
	// A non-finite penalty is refused before any trace is generated:
	// site 1's trace configuration cannot be generated, yet the error
	// names site 0's penalty, under every router.
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, router := range []Router{RouterNone, RouterGreedy, RouterLP} {
			sites := testSites(t, 2, 2)
			sites[0].ImportPenaltyUSDPerMWh = p
			sites[1].Trace.SolarCapacityMW = -1
			_, err := Run(Config{Sites: sites, Policy: engine.PolicySmartDPSS, Router: router})
			want := "geo: site 0 has non-finite ImportPenaltyUSDPerMWh"
			if err == nil || err.Error() != want {
				t.Fatalf("penalty %g, router %s: error %v, want %q", p, router, err, want)
			}
		}
	}
}

// geo.Run generates each site's traces through the fleet's shared
// clear-sky envelope; every sample must carry the bits
// engine.GenerateTraces gives the site's TraceConfig alone.
func TestGeoFleetTracesMatchGenerateTraces(t *testing.T) {
	windy := testSites(t, 3, 3)
	sunny := testSites(t, 3, 2)
	for s := range windy {
		windy[s].Trace.WindCapacityMW = float64(s)
	}
	for s := range sunny {
		sunny[s].Trace.SolarCapacityMW = 1 + float64(s)
	}
	fleets := []struct {
		name  string
		sites []SiteSpec
	}{
		{"default", testSites(t, 4, 3)},
		{"mixed-wind", windy},
		{"mixed-solar", sunny},
		{"one-site", testSites(t, 1, 2)},
	}
	for _, f := range fleets {
		t.Run(f.name, func(t *testing.T) {
			if fleetEnvelope(f.sites) == nil {
				t.Fatal("no shared envelope")
			}
			for _, parallel := range []int{1, 2, 8} {
				got, err := generateFleet(&Config{Sites: f.sites, Parallel: parallel})
				if err != nil {
					t.Fatal(err)
				}
				for s := range f.sites {
					want, err := engine.GenerateTraces(f.sites[s].Trace)
					if err != nil {
						t.Fatal(err)
					}
					if diff := setBitsDiff(got[s].View(), want.View()); diff != "" {
						t.Fatalf("parallel %d, site %d: %s", parallel, s, diff)
					}
				}
			}
		})
	}
}

// setBitsDiff describes the first difference between two trace sets,
// comparing every sample's IEEE bits, or returns "".
func setBitsDiff(a, b *trace.Set) string {
	as := [...]*trace.Series{a.DemandDS, a.DemandDT, a.Renewable, a.PriceLT, a.PriceRT}
	bs := [...]*trace.Series{b.DemandDS, b.DemandDT, b.Renewable, b.PriceLT, b.PriceRT}
	for k := range as {
		x, y := as[k], bs[k]
		if x.Name != y.Name || x.Unit != y.Unit || len(x.Values) != len(y.Values) {
			return fmt.Sprintf("series %d shape %s/%s/%d, want %s/%s/%d", k,
				x.Name, x.Unit, len(x.Values), y.Name, y.Unit, len(y.Values))
		}
		for i := range x.Values {
			if math.Float64bits(x.Values[i]) != math.Float64bits(y.Values[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", x.Name, i, x.Values[i], y.Values[i])
			}
		}
	}
	return ""
}
