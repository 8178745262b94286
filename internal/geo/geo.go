// Package geo lifts the single-site supply engine into a geo-distributed
// fleet: N sites, each with its own engine options and traces, on one
// shared slot clock, coupled by a front end that routes delay-sensitive
// request traffic between pricing regions (the workload-modulation
// formulation of arXiv:1308.0585 grafted onto the paper's two-timescale
// supply controller).
//
// The package is built so that today's single-site paths are exactly the
// one-site special case: a one-site Run with RouterNone feeds the
// generated traces to the engine unmodified and produces byte-identical
// reports to engine.Simulate. The routing is fixed for the whole horizon
// before any site steps, so no site reads another's state mid-run: each
// site runs to completion on its own worker of the suite pool (one per
// site, drawn from the suite's shared worker budget), and the fleet-level
// per-slot aggregates are reduced afterwards in fixed site order, so the
// output is byte-identical at every parallelism level.
//
// Trace generation, greedy routing and stepping each run on the suite
// pool, with no work repeated across sites. Every site's solar trace
// reads one clear-sky envelope, computed once per run (Run requires
// equal Days, and every trace starts on January 1);
// the greedy router routes contiguous slot ranges as pool jobs;
// and each site's replay loop reads its session's slot values in place
// rather than copying them. None of this moves an output bit: the
// envelope is the one each site would compute, and the router resets
// its state every slot.
//
// Routing has two arms. The greedy router is the online arm: per slot it
// observes only that slot's real-time prices and home demands, and moves
// load from the most expensive site to cheaper ones while the price gap
// exceeds the importer's latency penalty. The LP router is the
// offline/lookahead arm: one coupled routing+supply staircase LP over
// the whole horizon (baseline.SolveGeoHorizon) whose routing projection
// is replayed through each site's own controller.
package geo

import (
	"errors"
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/baseline"
	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/solar"
	"github.com/smartdpss/smartdpss/internal/suite"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// SiteSpec declares one site of the fleet: its supply-side engine
// options, its trace scope, and the latency penalty the front end
// charges for routing demand to it. Both routers cap a site's
// post-routing delay-sensitive demand at its Options.PeakMW per slot
// hour.
type SiteSpec struct {
	// Name labels the site in results.
	Name string
	// Options is the site's engine configuration.
	Options engine.Options
	// Trace is the site's trace request; per-site seeds and price scales
	// are the knobs that make sites diverge.
	Trace engine.TraceConfig
	// ImportPenaltyUSDPerMWh is the latency-penalty price of serving a
	// request away from its home region, charged per imported MWh. It
	// must be finite and non-negative.
	ImportPenaltyUSDPerMWh float64
}

// Router selects the workload-routing arm.
type Router string

const (
	// RouterNone disables routing: every site serves its home demand.
	// The traces pass through unmodified, which is what pins the
	// one-site case byte-identical to the single-site engine.
	RouterNone Router = "none"
	// RouterGreedy is the online arm: per-slot price-ordered moves
	// using only that slot's observables.
	RouterGreedy Router = "greedy"
	// RouterLP is the offline arm: the coupled routing+supply LP over
	// the whole horizon.
	RouterLP Router = "lp"
)

// Config scopes one geo run.
type Config struct {
	// Sites is the fleet, in fixed result order. All sites must share
	// their traces' Days.
	Sites []SiteSpec
	// Policy is the per-site supply policy (every engine policy works;
	// the offline benchmarks see the post-routing demand).
	Policy engine.Policy
	// Router selects the routing arm (default RouterNone).
	Router Router
	// Parallel bounds the per-site worker fan-out, the calling goroutine
	// included, by the suite pool's rule: 0 means GOMAXPROCS and a
	// negative value means 1 (sequential).
	Parallel int
	// Tokens, when non-nil, is a shared spawn budget (suite.Config's
	// SpawnBudget): workers beyond the calling goroutine are spawned
	// only while a token is available, so geo fan-out nests inside
	// suite.Map without multiplying the global parallelism.
	Tokens chan struct{}
}

// SiteResult is one site's slice of the run.
type SiteResult struct {
	Name   string
	Report *engine.Report
	// ImportedMWh and ExportedMWh total the demand routed to and away
	// from the site; PenaltyUSD prices the imports.
	ImportedMWh float64
	ExportedMWh float64
	PenaltyUSD  float64
}

// Result aggregates a geo run. TotalCostUSD sums the per-site supply
// costs; RoutingPenaltyUSD is kept separate (like the report's peak
// charge) so the supply costs stay comparable across routers.
type Result struct {
	Policy engine.Policy
	Router Router
	Sites  []SiteResult
	Slots  int

	TotalCostUSD      float64
	TimeAvgCostUSD    float64
	RoutingPenaltyUSD float64
	// MovedMWh is the total demand that changed sites.
	MovedMWh float64
	// PeakGridMW is the fleet-level aggregate grid peak: the maximum
	// over slots of the summed per-site grid draw, which no per-site
	// report can reconstruct.
	PeakGridMW float64
	// PeakBacklogMWh is the fleet-level aggregate backlog peak.
	PeakBacklogMWh float64
	UnservedMWh    float64
}

// Run executes the geo fleet in four steps: it generates every site's
// traces on the suite pool over one shared clear-sky envelope, computes
// the routing for the whole horizon (the greedy router in slot-range
// jobs on the pool, the LP router on the caller; a one-site fleet has
// nothing to route), runs each site's session to its horizon as one
// pool job (a site never changes worker mid-run), and reduces the
// recorded per-slot grid draw and backlog across sites in fixed site
// order. Every site penalty must be finite and non-negative.
//
// Errors are deterministic too: Run reports the failing site with the
// lowest index, even when a later site failed at an earlier slot.
// Sites do not step in lockstep, so there is no earliest failing slot
// to report.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Sites) == 0 {
		return nil, errors.New("geo: no sites configured")
	}
	router := cfg.Router
	if router == "" {
		router = RouterNone
	}
	switch router {
	case RouterNone, RouterGreedy, RouterLP:
	default:
		return nil, fmt.Errorf("geo: unknown router %q", router)
	}
	days := cfg.Sites[0].Trace.Days
	for s := range cfg.Sites {
		if cfg.Sites[s].Trace.Days != days {
			return nil, fmt.Errorf("geo: site %d has %d days, want %d", s, cfg.Sites[s].Trace.Days, days)
		}
		if p := cfg.Sites[s].ImportPenaltyUSDPerMWh; math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("geo: site %d has non-finite ImportPenaltyUSDPerMWh", s)
		}
		if cfg.Sites[s].ImportPenaltyUSDPerMWh < 0 {
			return nil, fmt.Errorf("geo: site %d has negative ImportPenaltyUSDPerMWh", s)
		}
	}

	n := len(cfg.Sites)
	traces, err := generateFleet(&cfg)
	if err != nil {
		return nil, err
	}
	sets := make([]*trace.Set, n)
	for s := range traces {
		sets[s] = traces[s].View()
	}
	H := sets[0].Horizon()

	// Routing is precomputed for the whole horizon before any session
	// steps: the greedy arm is per-slot online (it reads only slot-τ
	// observables), the LP arm is clairvoyant, and RouterNone is nil —
	// the zero-copy passthrough that keeps legacy runs byte-identical.
	// No site reads another's state after this point, which is what
	// lets every site run to completion on its own.
	var routedDS [][]float64
	switch router {
	case RouterNone:
	case RouterGreedy:
		if n > 1 { // one site has nowhere to send its demand
			routedDS = routeGreedy(cfg.Sites, sets, cfg.Parallel, cfg.Tokens)
		}
	case RouterLP:
		routedDS, err = routeLP(cfg.Sites, sets)
		if err != nil {
			return nil, err
		}
	}

	// Site s owns slots[s*H : (s+1)*H]: each worker writes one contiguous
	// run, and the reduce below reads the buffer after every worker has
	// returned.
	slots := make([]slotTotals, n*H)
	sites, err := suite.MapBudget(cfg.Parallel, cfg.Tokens, n, func(s int) (SiteResult, error) {
		var routed []float64
		if routedDS != nil {
			routed = routedDS[s]
		}
		site, err := runSite(&cfg.Sites[s], cfg.Policy, traces[s], routed, slots[s*H:(s+1)*H])
		if err != nil {
			return SiteResult{}, fmt.Errorf("geo: site %d: %w", s, err)
		}
		return site, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Policy: cfg.Policy,
		Router: router,
		Sites:  sites,
		Slots:  H,
	}
	for i := 0; i < H; i++ {
		grid, backlog := 0.0, 0.0
		for s := 0; s < n; s++ {
			grid += slots[s*H+i].gridMWh
			backlog += slots[s*H+i].backlogMWh
		}
		if grid > res.PeakGridMW {
			res.PeakGridMW = grid
		}
		if backlog > res.PeakBacklogMWh {
			res.PeakBacklogMWh = backlog
		}
	}
	for _, site := range sites {
		res.TotalCostUSD += site.Report.TotalCostUSD
		res.RoutingPenaltyUSD += site.PenaltyUSD
		res.MovedMWh += site.ImportedMWh
		res.UnservedMWh += site.Report.UnservedMWh
	}
	res.TimeAvgCostUSD = res.TotalCostUSD / float64(H)
	return res, nil
}

// generateFleet generates every site's traces on the suite pool over
// one shared clear-sky envelope, computed here once; when it cannot be
// computed, each site computes its own and reports its own errors.
// Either way each site's traces are the bits engine.GenerateTraces
// returns for its TraceConfig.
func generateFleet(cfg *Config) ([]*engine.Traces, error) {
	env := fleetEnvelope(cfg.Sites)
	return suite.MapBudget(cfg.Parallel, cfg.Tokens, len(cfg.Sites), func(s int) (*engine.Traces, error) {
		tr, err := engine.GenerateTracesWith(cfg.Sites[s].Trace, env)
		if err != nil {
			return nil, fmt.Errorf("geo: site %d: %w", s, err)
		}
		return tr, nil
	})
}

// fleetEnvelope returns the clear-sky envelope every site shares (Run
// already requires equal Days), or nil when site 0's
// trace configuration yields none. It belongs to one run: a cache
// outliving the run would keep state between runs.
func fleetEnvelope(sites []SiteSpec) *solar.Envelope {
	env, err := engine.SolarEnvelope(sites[0].Trace)
	if err != nil {
		return nil
	}
	return env
}

// slotTotals is one site's contribution to one slot of the fleet-level
// aggregates.
type slotTotals struct {
	gridMWh, backlogMWh float64
}

// runSite replays one site's session over its whole horizon, recording
// each slot's grid draw and backlog into out (one entry per slot).
// routed, when non-nil, is the site's post-routing delay-sensitive
// demand; the traces pass through unmodified when routing moved nothing,
// and otherwise only the routed series is validated, since the other
// four were validated when generated.
func runSite(spec *SiteSpec, policy engine.Policy, traces *engine.Traces, routed []float64, out []slotTotals) (SiteResult, error) {
	var imported, exported float64
	if routed != nil {
		home := traces.View().DemandDS
		moved := false
		for i, v := range routed {
			delta := v - home.At(i)
			if delta > 0 {
				imported += delta
				moved = true
			} else if delta < 0 {
				exported -= delta
				moved = true
			}
		}
		if moved {
			var err error
			if traces, err = engine.WithDemandDS(traces, routed); err != nil {
				return SiteResult{}, err
			}
		}
	}
	sess, err := engine.NewReplaySession(policy, spec.Options, traces)
	if err != nil {
		return SiteResult{}, err
	}
	for i := range out {
		o, err := engine.ReplaySlot(sess)
		if err != nil {
			return SiteResult{}, err
		}
		out[i] = slotTotals{o.GridMWh, o.BacklogAfter}
	}
	rep, err := sess.Finish()
	if err != nil {
		return SiteResult{}, err
	}
	return SiteResult{
		Name:        spec.Name,
		Report:      rep,
		ImportedMWh: imported,
		ExportedMWh: exported,
		PenaltyUSD:  spec.ImportPenaltyUSDPerMWh * imported,
	}, nil
}

// routeLP runs the coupled routing+supply LP and returns its routing
// projection.
func routeLP(sites []SiteSpec, sets []*trace.Set) ([][]float64, error) {
	geoSites := make([]baseline.GeoSite, len(sites))
	for s := range sites {
		geoSites[s] = baseline.GeoSite{
			Config:           sites[s].Options.BaselineConfig(),
			Set:              sets[s],
			ImportPenaltyUSD: sites[s].ImportPenaltyUSDPerMWh,
			RouteCapMWh:      sites[s].Options.PeakMW,
		}
	}
	plan, err := baseline.SolveGeoHorizon(geoSites)
	if err != nil {
		return nil, fmt.Errorf("geo: routing LP: %w", err)
	}
	return plan.RoutedDS, nil
}
