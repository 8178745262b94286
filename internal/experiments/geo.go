package experiments

// The "geo" scenario family evaluates the geo-distributed fleet of
// internal/geo: what workload routing between pricing regions is worth
// as regional prices diverge (GEO-1), how the multi-site fleet scales
// from one site to eight (GEO-2), and how the latency penalty
// prices routing out (GEO-3). Site 0 of every fleet is the exact
// single-site default scope, so the one-site row of GEO-2 is the legacy
// path byte for byte; every sweep point is an independent pool job and
// each geo run's per-site fan-out draws from the same shared budget, so
// the tables are byte-identical at any parallelism level.

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/geo"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// geoSiteSpecs builds an n-site fleet: site 0 is the exact base scope
// (the legacy pin), sites 1..n−1 take derived seeds and a symmetric
// multiplicative price spread from 1−spread (cheapest) to 1+spread
// (dearest). The market price cap scales with a site's prices so dear
// sites stay within their own Pmax.
func geoSiteSpecs(cfg Config, n int, spread, penaltyUSD float64) []geo.SiteSpec {
	sites := make([]geo.SiteSpec, n)
	for i := range sites {
		tc := cfg.TraceConfig()
		opts := dpss.DefaultOptions()
		if i > 0 {
			tc.Seed = cfg.Seed + int64(i)*7919
			frac := 1.0
			if n > 2 {
				frac = float64(i-1) / float64(n-2)
			}
			scale := 1 - spread + 2*spread*frac
			tc.PriceScale = scale
			if scale > 1 {
				opts.PmaxUSD *= scale
			}
		}
		sites[i] = geo.SiteSpec{
			Name:                   fmt.Sprintf("s%d", i),
			Options:                opts,
			Trace:                  tc,
			ImportPenaltyUSDPerMWh: penaltyUSD,
		}
	}
	return sites
}

// geoRun executes one geo sweep point on the shared worker budget.
func geoRun(cfg Config, sites []geo.SiteSpec, router geo.Router) (*geo.Result, error) {
	return geo.Run(geo.Config{
		Sites:    sites,
		Policy:   dpss.PolicySmartDPSS,
		Router:   router,
		Parallel: cfg.Parallel,
		Tokens:   cfg.SpawnBudget(),
	})
}

// geoAllIn is a result's supply cost plus routing penalty per slot —
// the honest routing comparison, since the penalty prices the latency
// the routed requests actually suffer.
func geoAllIn(r *geo.Result) float64 {
	return (r.TotalCostUSD + r.RoutingPenaltyUSD) / float64(r.Slots)
}

// GeoDivSpreads are the GEO-1 price-divergence points: the ±fraction the
// regional prices spread around the base trace.
var GeoDivSpreads = []float64{0, 0.15, 0.3, 0.45}

// geoDivSites and geoDivPenaltyUSD fix the GEO-1 fleet shape: three
// regions, 5 $/MWh latency penalty.
const (
	geoDivSites      = 3
	geoDivPenaltyUSD = 5
)

// GeoDivergence sweeps regional price divergence (GEO-1). Expected
// reading: with identical prices routing moves nothing, and the greedy
// saving grows with the spread as the router ships demand from the dear
// region to the cheap one; the clairvoyant LP router bounds what per-slot
// greedy decisions leave on the table.
func GeoDivergence(cfg Config) (*Table, error) {
	routers := []geo.Router{geo.RouterNone, geo.RouterGreedy}
	if !cfg.SkipOffline {
		routers = append(routers, geo.RouterLP)
	}
	nR := len(routers)
	results, err := suite.Map(cfg, len(GeoDivSpreads)*nR, func(i int) (*geo.Result, error) {
		sites := geoSiteSpecs(cfg, geoDivSites, GeoDivSpreads[i/nR], geoDivPenaltyUSD)
		return geoRun(cfg, sites, routers[i%nR])
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "GEO-1 — workload routing vs regional price divergence (3 sites)",
		Note: "SmartDPSS per site; site 0 is the base region, sites 1-2 spread\n" +
			"their prices by ±s; import penalty 5 $/MWh; costs are all-in\n" +
			"(supply + routing penalty) per slot; 'saving' is greedy vs none.",
		Columns: []string{"spread", "none $/slot", "greedy $/slot", "saving", "lp $/slot", "moved MWh", "penalty $"},
	}
	for si, spread := range GeoDivSpreads {
		none := results[si*nR+0]
		greedy := results[si*nR+1]
		lpCell := "-"
		if nR == 3 {
			lpCell = fmtUSD(geoAllIn(results[si*nR+2]))
		}
		t.AddRow(
			fmt.Sprintf("±%g%%", spread*100),
			fmtUSD(geoAllIn(none)),
			fmtUSD(geoAllIn(greedy)),
			fmtPct(1-geoAllIn(greedy)/geoAllIn(none)),
			lpCell,
			fmtF(greedy.MovedMWh),
			fmtUSD(greedy.RoutingPenaltyUSD),
		)
	}
	return t, nil
}

// GeoScaleCounts are the GEO-2 site counts.
var GeoScaleCounts = []int{1, 2, 4, 8}

// GeoScale grows the fleet from one site to eight under the greedy
// router (GEO-2). Expected reading: the one-site row is the legacy
// single-site path byte for byte (no routing partner, nothing moves);
// cost grows roughly linearly with the fleet while routing trims the
// dear sites, and the fleet-level aggregate peak grows sublinearly
// because regional demand peaks do not align.
func GeoScale(cfg Config) (*Table, error) {
	results, err := suite.Map(cfg, len(GeoScaleCounts), func(i int) (*geo.Result, error) {
		sites := geoSiteSpecs(cfg, GeoScaleCounts[i], 0.3, geoDivPenaltyUSD)
		return geoRun(cfg, sites, geo.RouterGreedy)
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "GEO-2 — fleet scaling from 1 to 8 sites (greedy router)",
		Note: "SmartDPSS per site, price spread ±30%, import penalty 5 $/MWh;\n" +
			"the 1-site row is the legacy single-site path; 'peak grid' is the\n" +
			"fleet-level aggregate peak across concurrently stepped sites.",
		Columns: []string{"sites", "all-in $/slot", "per-site $/slot", "moved MWh", "peak grid MW", "peak backlog MWh"},
	}
	for i, res := range results {
		n := float64(GeoScaleCounts[i])
		t.AddRow(
			fmt.Sprintf("%d", GeoScaleCounts[i]),
			fmtUSD(geoAllIn(res)),
			fmtUSD(geoAllIn(res)/n),
			fmtF(res.MovedMWh),
			fmtF(res.PeakGridMW),
			fmtF(res.PeakBacklogMWh),
		)
	}
	return t, nil
}

// GeoLatPenalties are the GEO-3 latency-penalty points in USD/MWh.
var GeoLatPenalties = []float64{0, 5, 10, 20, 40, 80}

// GeoLatency sweeps the import penalty at a fixed ±30% price spread
// (GEO-3). Expected reading: a frontier — at zero penalty the router
// moves the most demand and books the largest supply saving, and rising
// penalties price routing out until the fleet behaves like unrouted
// islands.
func GeoLatency(cfg Config) (*Table, error) {
	results, err := suite.Map(cfg, len(GeoLatPenalties), func(i int) (*geo.Result, error) {
		sites := geoSiteSpecs(cfg, geoDivSites, 0.3, GeoLatPenalties[i])
		return geoRun(cfg, sites, geo.RouterGreedy)
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "GEO-3 — routing latency-penalty frontier (3 sites, ±30% spread)",
		Note: "SmartDPSS per site, greedy router; the penalty prices serving a\n" +
			"request away from its home region; expected: moved demand falls\n" +
			"monotonically as the penalty rises.",
		Columns: []string{"penalty $/MWh", "supply $/slot", "routing $", "all-in $/slot", "moved MWh"},
	}
	for i, res := range results {
		t.AddRow(
			fmt.Sprintf("%g", GeoLatPenalties[i]),
			fmtUSD(res.TimeAvgCostUSD),
			fmtUSD(res.RoutingPenaltyUSD),
			fmtUSD(geoAllIn(res)),
			fmtF(res.MovedMWh),
		)
	}
	return t, nil
}
