package smartdpss_test

// One benchmark per reproduced table/figure of the paper's evaluation
// (Sec. VI), plus ablation benches for the clairvoyant benchmark's plan
// windows: the paper's per-interval LPs against one whole-horizon LP, up
// to a year long. Each figure bench runs its experiment end to end on a
// shortened horizon so `go test -bench=.` regenerates every row the paper
// reports in bounded time; `cmd/experiments` prints the full-month
// versions.

import (
	"fmt"
	"io"
	"testing"

	dpss "github.com/smartdpss/smartdpss"
	"github.com/smartdpss/smartdpss/internal/experiments"
)

// benchConfig trims the horizon so the full bench suite stays fast.
func benchConfig() experiments.Config {
	return experiments.Config{Days: 7, Seed: 1, SkipOffline: true}
}

func benchTable(b *testing.B, run func(experiments.Config) (*experiments.Table, error), cfg experiments.Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.Fprint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Traces regenerates the Fig. 5 input traces and statistics.
func BenchmarkFig5Traces(b *testing.B) {
	benchTable(b, experiments.Fig5Traces, benchConfig())
}

// BenchmarkFig6VSweep regenerates the Fig. 6(a)(b) V sensitivity sweep.
func BenchmarkFig6VSweep(b *testing.B) {
	benchTable(b, experiments.Fig6VSweep, benchConfig())
}

// BenchmarkFig6TSweep regenerates the Fig. 6(c)(d) T sensitivity sweep.
func BenchmarkFig6TSweep(b *testing.B) {
	benchTable(b, experiments.Fig6TSweep, benchConfig())
}

// BenchmarkFig7Factors regenerates the Fig. 7 ε/markets/battery factors.
func BenchmarkFig7Factors(b *testing.B) {
	benchTable(b, experiments.Fig7Factors, benchConfig())
}

// BenchmarkFig8Penetration regenerates the Fig. 8 penetration/variation
// sweeps.
func BenchmarkFig8Penetration(b *testing.B) {
	benchTable(b, experiments.Fig8Penetration, benchConfig())
}

// BenchmarkFig9Robustness regenerates the Fig. 9 estimation-error table.
func BenchmarkFig9Robustness(b *testing.B) {
	benchTable(b, experiments.Fig9Robustness, benchConfig())
}

// BenchmarkFig10Scaling regenerates the Fig. 10 system-expansion table.
func BenchmarkFig10Scaling(b *testing.B) {
	benchTable(b, experiments.Fig10Scaling, benchConfig())
}

// BenchmarkDefaultsSimulation measures one month of SmartDPSS under the
// Sec. VI-A parameter table (the per-simulation cost all sweeps pay).
func BenchmarkDefaultsSimulation(b *testing.B) {
	traces, err := dpss.GenerateTraces(dpss.DefaultTraceConfig())
	if err != nil {
		b.Fatal(err)
	}
	opts := dpss.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOfflineDayLP measures the paper's per-interval offline
// benchmark, the interval-LP rung: six 12-slot staircase interval LPs
// over three days, solved on the sparse revised simplex, plus their
// replay.
func BenchmarkAblationOfflineDayLP(b *testing.B) {
	benchOffline(b, dpss.PolicyOfflineOptimal)
}

// BenchmarkAblationOfflineHorizonLP measures the single whole-horizon LP
// (the cross-interval planner the day decomposition gives up).
func BenchmarkAblationOfflineHorizonLP(b *testing.B) {
	benchOffline(b, dpss.PolicyOfflineHorizon)
}

func benchOffline(b *testing.B, pol dpss.Policy) {
	b.Helper()
	tc := dpss.DefaultTraceConfig()
	tc.Days = 3
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		b.Fatal(err)
	}
	opts := dpss.DefaultOptions()
	opts.T = 12
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpss.Simulate(pol, opts, traces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOfflineAnnualLP measures the year-long (8760-slot)
// whole-horizon LP — the scale the sparse revised simplex exists for.
// A dense-tableau counterpart is deliberately absent: the chain form's
// quadratic constraint matrix does not fit in memory at this horizon.
// Skipped under -short so `make bench`'s one-iteration smoke stays fast.
func BenchmarkAblationOfflineAnnualLP(b *testing.B) {
	if testing.Short() {
		b.Skip("year-long horizon LP in -short mode")
	}
	tc := dpss.DefaultTraceConfig()
	tc.Days = 365
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		b.Fatal(err)
	}
	opts := dpss.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpss.Simulate(dpss.PolicyOfflineHorizon, opts, traces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures the synthetic generator substrate.
func BenchmarkTraceGeneration(b *testing.B) {
	tc := dpss.DefaultTraceConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dpss.GenerateTraces(tc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvisionGrid regenerates the PROV-1 generator × battery
// provisioning grid — the bench-smoke point of the provision family, so
// `make bench` (and CI) exercises the on-site generation dispatch path.
func BenchmarkProvisionGrid(b *testing.B) {
	benchTable(b, experiments.ProvisionGrid, benchConfig())
}

// BenchmarkFleetDispatch measures a week of SmartDPSS dispatching a
// four-unit heterogeneous fleet under the commitment lookahead — the
// hot path the fleet tentpole added (per-unit windows, merit-order P5
// source legs, window commitment) — so `make bench` and the CI bench
// smoke watch its cost.
func BenchmarkFleetDispatch(b *testing.B) {
	tc := dpss.DefaultTraceConfig()
	tc.Days = 7
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		b.Fatal(err)
	}
	opts := dpss.DefaultOptions()
	opts.CommitWindow = 12
	opts.Fleet = []dpss.UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.3, FuelUSDPerMWh: 38, StartupUSD: 20, CO2KgPerMWh: 700},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, StartupUSD: 10, CO2KgPerMWh: 500},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 52, FuelQuadUSD: 4, CO2KgPerMWh: 400},
		{CapacityMW: 0.1, FuelUSDPerMWh: 60, StartupLagSlots: 1, CO2KgPerMWh: 300},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGeoSites builds an n-site fleet matching the geo scenario
// family's shape: site 0 at the default scope, later sites on derived
// seeds with a ±30% price spread.
func benchGeoSites(n int) []dpss.GeoSiteSpec {
	sites := make([]dpss.GeoSiteSpec, n)
	for i := range sites {
		tc := dpss.DefaultTraceConfig()
		tc.Days = 7
		opts := dpss.DefaultOptions()
		if i > 0 {
			tc.Seed += int64(i) * 7919
			frac := 1.0
			if n > 2 {
				frac = float64(i-1) / float64(n-2)
			}
			scale := 0.7 + 0.6*frac
			tc.PriceScale = scale
			if scale > 1 {
				opts.PmaxUSD *= scale
			}
		}
		sites[i] = dpss.GeoSiteSpec{
			Name:                   fmt.Sprintf("s%d", i),
			Options:                opts,
			Trace:                  tc,
			ImportPenaltyUSDPerMWh: 5,
		}
	}
	return sites
}

// BenchmarkGeoStep measures a week of the geo-distributed fleet at
// 1/2/4/8 sites (greedy router, SmartDPSS per site, each site run to
// completion on the per-site fan-out). The allocs/op gate in cmd/perf
// watches that fan-out: allocations must stay proportional to site count
// (setup: traces, sessions, routing) with zero allocations per slot
// step, so a regression that allocates in a site's slot loop multiplies
// allocs by the slot count and trips the gate at every fleet size.
func BenchmarkGeoStep(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			sites := benchGeoSites(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dpss.RunGeo(dpss.GeoOptions{
					Sites:  sites,
					Policy: dpss.PolicySmartDPSS,
					Router: dpss.GeoRouterGreedy,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Sites) != n {
					b.Fatalf("got %d site results, want %d", len(res.Sites), n)
				}
			}
		})
	}
}

// BenchmarkTuneEvaluate measures one objective evaluation of the
// self-tuner — the unit of work RunTune repeats for its entire budget
// (one short simulation per suite seed, blended into the mean/worst
// score). The allocs/op gate in cmd/perf watches it: a per-evaluation
// allocation regression multiplies across every evaluation of every
// tuning run. The warm-up call outside the timer fills the shared trace
// cache, so the measured loop sees the steady-state cost.
func BenchmarkTuneEvaluate(b *testing.B) {
	opts := dpss.DefaultOptions()
	obj, err := experiments.NewTuneObjective(experiments.TuneOptions{
		Policy: dpss.PolicySmartDPSS,
		Base:   opts,
		Suite:  experiments.Config{Days: 2, Seed: 1, SkipOffline: true, Seeds: 2, Parallel: 1},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{opts.V, opts.Epsilon, float64(opts.T)}
	if _, err := obj(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj(x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSuite runs the full one-month scenario suite (paper figures plus
// extensions, provisioning and fleet) through the registry at a fixed
// pool width. The selectors are explicit so the year-long annual family
// never rides into this benchmark's workload.
func benchSuite(b *testing.B, parallel int) {
	b.Helper()
	cfg := dpss.SuiteConfig{Days: 7, Seed: 1, SkipOffline: true, Seeds: 3, Parallel: parallel}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := dpss.RunSuite(cfg, "paper", "ext", "provision", "fleet")
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkSuiteSequential pins the worker pool to one goroutine — the
// pre-suite sequential baseline the speedup is measured against.
func BenchmarkSuiteSequential(b *testing.B) {
	benchSuite(b, 1)
}

// BenchmarkSuiteTune runs the tune family (TUNE-1..3) through the
// registry on one worker: the layer above BenchmarkTuneEvaluate, where
// a run searches each policy arm once and the three scenarios share the
// searches, so its time is about two searches' evaluations plus TUNE-2's
// and TUNE-3's replays.
func BenchmarkSuiteTune(b *testing.B) {
	cfg := dpss.SuiteConfig{Days: 2, Seed: 1, Seeds: 2, Parallel: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := dpss.RunSuite(cfg, "tune")
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != 3 {
			b.Fatalf("tune family printed %d tables, want 3", len(tables))
		}
	}
}

// BenchmarkSuiteParallel fans scenarios and sweep points across
// GOMAXPROCS; the ratio to BenchmarkSuiteSequential is the suite
// engine's speedup on this machine.
func BenchmarkSuiteParallel(b *testing.B) {
	benchSuite(b, 0)
}
