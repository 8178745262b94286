package main

import (
	"fmt"
	"math"
	"time"

	"github.com/smartdpss/smartdpss/internal/baseline"
	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/geo"
)

// Geo workload shape: the geo scenario family's fleets — SmartDPSS per
// site, sharded stepper at width 2, site 0 at the default scope, later
// sites on derived seeds with a ±30 % price spread and a 5 USD/MWh import
// penalty — over a month. The geo workload runs GEO-2's largest fleet, 8
// sites, with the greedy router. No LP runs, so it is the bypass workload
// for lp changes and the one that watches the stepper and the router. The
// horizon workload plans GEO-1's 3-site fleet with the clairvoyant router.
const (
	geoSites   = 8
	geoDays    = 31
	geoFleets  = 64 // distinct fleets per geo run; operations cycle through them
	geoSpread  = 0.3
	geoPenalty = 5 // USD/MWh
)

// fleetInput is one geo operation's input and what its first run gave.
type fleetInput struct {
	sites    []geo.SiteSpec
	first    firstSolve
	moved    float64
	exported []float64 // per site, MWh
}

// geoShape returns the fleet's sites and days.
func geoShape(sites int, small bool) (int, int) {
	if small {
		return 2, 2
	}
	return sites, geoDays
}

// newFleets builds n fleets on the run's derived seeds. This is the whole
// set-up of the geo workload and the coupled half of the horizon
// workload's: geo.Run generates each site's traces itself, inside the
// operation.
func newFleets(n, sites, days int, seed int64) []*fleetInput {
	fleets := make([]*fleetInput, n)
	for k := range fleets {
		fleets[k] = &fleetInput{sites: geoFleet(sites, days, subSeed(seed, k))}
	}
	return fleets
}

func runGeoWorkload(o runOpts, tr *tracer) (*result, error) {
	nSites, days := geoShape(geoSites, o.small)
	fleets, setup, err := timeSetup(o, func() ([]*fleetInput, error) {
		return newFleets(geoFleets, nSites, days, o.seed), nil
	})
	if err != nil {
		return nil, err
	}

	s := newSampler(o, tr)
	key := fmt.Sprintf("geo.greedy.%s.%d", sizeName(o.small), o.seed)
	for s.more() {
		k := len(s.lat) % len(fleets)
		in := fleets[k]
		var res *geo.Result
		s.do(float64(nSites*days*24), func(c opCtx) error {
			id := c.begin("geo.run_greedy")
			defer c.end(id)
			var err error
			res, err = runFleet(in.sites, geo.RouterGreedy)
			return err
		})
		if res != nil {
			checkGreedy(s, o.refs, key, k, in, res)
		}
		// After each traced run, outside the operation, the same fleet's
		// trace generation and its run without routing: greedy minus none
		// is the router's cost, none minus generation the stepper's.
		if s.traced[len(s.traced)-1] {
			var err error
			s.aside(func() {
				if _, err = genFleet(tr, in.sites); err != nil {
					return
				}
				_, err = timed(tr, "geo.run_none", func() error {
					_, err := runFleet(in.sites, geo.RouterNone)
					return err
				})
			})
			if err != nil {
				s.fail(fmt.Errorf("fleet %d without routing: %w", k, err))
			}
		}
	}
	s.stop()
	checkExportBound(s, key, fleets)

	res, err := s.result(setup)
	if err != nil || tr == nil {
		return res, err
	}
	spans := tr.closed()
	ms := func(name string) metric {
		xs := selfTimes(spans, name)
		return metric{name + "_ms", "ms", median(xs) / 1e6, len(xs)}
	}
	var gen []float64
	for _, sp := range spans {
		if sp.name == "geo.trace_gen" {
			gen = append(gen, sp.dur)
		}
	}
	res.metrics = append(res.metrics,
		ms("geo.run_greedy"),
		ms("geo.run_none"),
		metric{"geo.trace_gen_ms", "ms", median(gen) / 1e6, len(gen)},
	)
	return res, nil
}

// planCoupled runs one fleet with the clairvoyant router.
func planCoupled(sites []geo.SiteSpec) (planOutcome, error) {
	res, err := runFleet(sites, geo.RouterLP)
	if err != nil {
		return planOutcome{}, err
	}
	imp, exp := routedTotals(res)
	return planOutcome{res.TotalCostUSD, res.UnservedMWh, imp, exp}, nil
}

// genFleet generates every site's traces, as geo.Run does, inside a
// geo.trace_gen span.
func genFleet(tr *tracer, sites []geo.SiteSpec) ([]*engine.Traces, error) {
	out := make([]*engine.Traces, len(sites))
	gen := tr.begin("geo.trace_gen", -1, -1)
	defer tr.end(gen)
	for i, site := range sites {
		id := tr.begin("engine.generate_traces", gen, -1)
		traces, err := engine.GenerateTraces(site.Trace)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out[i] = traces
	}
	return out, nil
}

// probeCoupled times, back to back, the fleet's trace generation and its
// coupled LP alone (baseline.SolveGeoHorizon), in seconds.
func probeCoupled(tr *tracer, sites []geo.SiteSpec) (genS, lpS float64, err error) {
	t0 := time.Now()
	traces, err := genFleet(tr, sites)
	if err != nil {
		return 0, 0, err
	}
	genS = time.Since(t0).Seconds()
	geoSites := make([]baseline.GeoSite, len(sites))
	for i, site := range sites {
		// Hourly slots: a site's routing cap in MWh is its peak in MW.
		geoSites[i] = baseline.GeoSite{
			Config:           site.Options.BaselineConfig(),
			Set:              traces[i].Set(),
			ImportPenaltyUSD: site.ImportPenaltyUSDPerMWh,
			RouteCapMWh:      site.Options.PeakMW,
		}
	}
	lpS, err = timed(tr, "baseline.geo_lp", func() error {
		_, err := baseline.SolveGeoHorizon(geoSites)
		return err
	})
	return genS, lpS, err
}

func runFleet(sites []geo.SiteSpec, router geo.Router) (*geo.Result, error) {
	return geo.Run(geo.Config{Sites: sites, Policy: engine.PolicySmartDPSS, Router: router, Parallel: procs})
}

// routedTotals sums the energy routed into and out of every site.
func routedTotals(r *geo.Result) (imported, exported float64) {
	for _, site := range r.Sites {
		imported += site.ImportedMWh
		exported += site.ExportedMWh
	}
	return imported, exported
}

// checkGreedy checks one greedy run: no unserved energy, routed energy
// conserved, and the exact cost and moved energy of the fleet's first run
// and of its reference.
func checkGreedy(s *sampler, refs refTable, key string, k int, in *fleetInput, r *geo.Result) {
	imported, exported := routedTotals(r)
	switch {
	case r.UnservedMWh > energyEpsilon:
		s.fail(fmt.Errorf("%s[%d]: %g MWh unserved", key, k, r.UnservedMWh))
	case math.Abs(imported-exported) > energyEpsilon*max(1, exported):
		s.fail(fmt.Errorf("%s[%d]: imported %g MWh, exported %g MWh", key, k, imported, exported))
	case in.first.done && (r.TotalCostUSD != in.first.cost || r.MovedMWh != in.moved):
		s.fail(fmt.Errorf("%s[%d]: cost %.17g, first run %.17g", key, k, r.TotalCostUSD, in.first.cost))
	case in.first.done:
	default:
		if ref, ok := refs.at(key, k); ok && r.TotalCostUSD != ref {
			s.fail(fmt.Errorf("%s[%d]: cost %.17g, reference %.17g", key, k, r.TotalCostUSD, ref))
			return
		}
		in.first = firstSolve{r.TotalCostUSD, true}
		in.moved = r.MovedMWh
		for _, site := range r.Sites {
			in.exported = append(in.exported, site.ExportedMWh)
		}
	}
}

// checkExportBound checks, after the run, that no site of a fleet that
// ran exported more than its home delay-sensitive demand.
func checkExportBound(s *sampler, key string, fleets []*fleetInput) {
	for k, in := range fleets {
		if !in.first.done {
			continue
		}
		traces, err := genFleet(nil, in.sites)
		if err != nil {
			s.fail(fmt.Errorf("%s[%d]: %w", key, k, err))
			continue
		}
		for i, tc := range traces {
			if home := tc.Set().DemandDS.Sum(); in.exported[i] > home+energyEpsilon {
				s.fail(fmt.Errorf("%s[%d]: site %d exported %g MWh of %g", key, k, i, in.exported[i], home))
				break
			}
		}
	}
}

// geoFleet builds an n-site fleet the way the geo scenario family does:
// site 0 at the default scope on seed, later sites on derived seeds with
// prices spread ±30 % and the market cap scaled with them.
func geoFleet(n, days int, seed int64) []geo.SiteSpec {
	sites := make([]geo.SiteSpec, n)
	for i := range sites {
		tc := engine.DefaultTraceConfig()
		tc.Days = days
		tc.Seed = seed
		opts := engine.DefaultOptions()
		if i > 0 {
			tc.Seed += int64(i) * 7919
			frac := 1.0
			if n > 2 {
				frac = float64(i-1) / float64(n-2)
			}
			scale := 1 - geoSpread + 2*geoSpread*frac
			tc.PriceScale = scale
			if scale > 1 {
				opts.PmaxUSD *= scale
			}
		}
		sites[i] = geo.SiteSpec{
			Name:                   fmt.Sprintf("s%d", i),
			Options:                opts,
			Trace:                  tc,
			ImportPenaltyUSDPerMWh: geoPenalty,
		}
	}
	return sites
}
