package smartdpss

import (
	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/experiments" // also registers suite scenarios
	"github.com/smartdpss/smartdpss/internal/geo"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// Policy selects a control algorithm.
type Policy = engine.Policy

// Available policies.
const (
	// PolicySmartDPSS is the paper's online Lyapunov controller.
	PolicySmartDPSS = engine.PolicySmartDPSS
	// PolicyImpatient serves all demand immediately (Sec. VI-A strawman).
	PolicyImpatient = engine.PolicyImpatient
	// PolicyOfflineOptimal is the clairvoyant per-interval benchmark
	// (paper Sec. II-D).
	PolicyOfflineOptimal = engine.PolicyOfflineOptimal
	// PolicyOfflineHorizon is a single clairvoyant LP over the whole
	// horizon; use only on short horizons.
	PolicyOfflineHorizon = engine.PolicyOfflineHorizon
	// PolicyLookahead is a receding-horizon (MPC) controller with
	// Options.LookaheadWindow fine slots of perfect foresight.
	PolicyLookahead = engine.PolicyLookahead
	// PolicyLyapunov is the forecast-free stored-energy baseline
	// (arXiv:1103.3099): price-threshold battery charge/discharge around
	// a perturbed target level, tuned by Options.LyapunovV and
	// Options.LyapunovTheta.
	PolicyLyapunov = engine.PolicyLyapunov
)

// Report is the simulation outcome: cost decomposition, energy totals,
// delay statistics, battery and availability accounting.
type Report = engine.Report

// Options tunes the controller and the simulated plant.
type Options = engine.Options

// UnitSpec describes one unit of an on-site generation fleet
// (Options.Fleet): capacity, minimum stable load, fuel curve,
// startup cost/lag and CO₂ intensity. A unit whose capacity is zero is
// dropped.
type UnitSpec = engine.UnitSpec

// DefaultOptions mirrors the paper's Sec. VI-A defaults: V = 1, ε = 0.5,
// T = 24 hourly slots, a 2 MW datacenter and a 15-minute UPS.
func DefaultOptions() Options { return engine.DefaultOptions() }

// TraceConfig parameterizes the synthetic January scenario standing in for
// the paper's MIDC solar, NYISO price and Google-cluster workload traces:
// every trace starts on January 1 and has hourly slots, and the models'
// parameters are fixed.
type TraceConfig = engine.TraceConfig

// DefaultTraceConfig returns the one-month default scenario.
func DefaultTraceConfig() TraceConfig { return engine.DefaultTraceConfig() }

// Traces bundles the five input series of a simulation.
type Traces = engine.Traces

// GenerateTraces builds the synthetic trace set: interactive plus batch
// demand, solar production, and two-timescale prices.
func GenerateTraces(tc TraceConfig) (*Traces, error) { return engine.GenerateTraces(tc) }

// CoolingConfig parameterizes the cooling coupling of TraceConfig.Cooling:
// the mean outside temperature and the temperature generator's seed.
// Generation clips the coupled demand at the traces' grid cap, PeakMW.
type CoolingConfig = engine.CoolingConfig

// SeriesStats summarizes one input series.
type SeriesStats = engine.SeriesStats

// TraceStatistics returns summary statistics for all five input series in
// a fixed order (demand_ds, demand_dt, renewable, price_lt, price_rt).
func TraceStatistics(t *Traces) ([]SeriesStats, error) { return engine.TraceStatistics(t) }

// Simulate runs the selected policy over the traces and returns its report.
func Simulate(policy Policy, opts Options, traces *Traces) (*Report, error) {
	return engine.Simulate(policy, opts, traces)
}

// TheoremBounds reports the deterministic bounds of Theorem 2.
type TheoremBounds = engine.TheoremBounds

// Bounds computes the Theorem 2 bounds for the options. It refuses the
// options NewSession refuses for PolicySmartDPSS, with the same
// ErrInvalidOptions error.
func Bounds(opts Options) (TheoremBounds, error) { return engine.Bounds(opts) }

// SuiteConfig scopes a scenario-suite run: trace horizon, seed, and the
// worker-pool parallelism (Parallel == 0 uses GOMAXPROCS; a negative
// Parallel runs sequentially).
type SuiteConfig = suite.Config

// DefaultSuiteConfig matches the paper's one-month setup.
func DefaultSuiteConfig() SuiteConfig { return suite.DefaultConfig() }

// SuiteTable is a printable scenario result.
type SuiteTable = suite.Table

// Scenario is a registered experiment: a named, tagged runner producing
// one table.
type Scenario = suite.Scenario

// Scenarios lists every registered scenario in registration (paper)
// order.
func Scenarios() []Scenario { return suite.Scenarios() }

// RunSuite resolves each selector (a scenario name or tag; none selects
// everything) and runs the matching scenarios on a worker pool, fanning
// both scenarios and their inner sweep points out across cfg.Parallel
// goroutines (GOMAXPROCS when zero). Tables come back in registration
// order and are byte-identical across parallelism levels at a fixed
// seed.
func RunSuite(cfg SuiteConfig, selectors ...string) ([]*SuiteTable, error) {
	return suite.RunSuite(cfg, selectors...)
}

// TuneOptions scopes a self-tuning run: the policy arm (PolicySmartDPSS
// or PolicyLyapunov), the base engine options, the evaluation suite
// (multi-seed mean cost with a worst-seed guard) and the optimizer
// budget.
type TuneOptions = experiments.TuneOptions

// TuneResult reports a finished tuning run: the tuned parameter vector,
// ready-to-simulate Options, default and tuned scores, and the
// optimizer's incumbent trajectory.
type TuneResult = experiments.TuneResult

// RunTune tunes one policy arm against the simulator with a
// deterministic seeded Nelder–Mead (internal/optimize), scoring each
// candidate over the suite's seed family on the shared worker pool.
// Same TuneOptions → bit-identical TuneResult at every parallelism
// level.
func RunTune(topts TuneOptions) (*TuneResult, error) { return experiments.RunTune(topts) }

// GeoSiteSpec declares one site of a geo-distributed fleet: engine
// options, trace scope and latency penalty. Routing never places more
// delay-sensitive demand on a site than its peak, Options.PeakMW.
type GeoSiteSpec = geo.SiteSpec

// GeoRouter selects the workload-routing arm of a geo run.
type GeoRouter = geo.Router

// Available geo routers.
const (
	// GeoRouterNone disables routing: every site serves its home
	// demand. A one-site run is byte-identical to Simulate.
	GeoRouterNone = geo.RouterNone
	// GeoRouterGreedy routes per slot by real-time price order using
	// only that slot's observables (the online arm).
	GeoRouterGreedy = geo.RouterGreedy
	// GeoRouterLP routes by the coupled routing+supply LP over the
	// whole horizon (the clairvoyant arm).
	GeoRouterLP = geo.RouterLP
)

// GeoOptions scopes a geo-distributed multi-site run: the fleet, the
// per-site policy, the routing arm and the parallelism bound.
type GeoOptions = geo.Config

// GeoResult aggregates a geo run: per-site reports plus fleet-level
// totals and the aggregate grid/backlog peaks.
type GeoResult = geo.Result

// GeoSiteResult is one site's slice of a geo run.
type GeoSiteResult = geo.SiteResult

// RunGeo runs a geo-distributed fleet: per-site traces, workload
// routing precomputed for the whole horizon, then each site's session
// run to completion on its own worker, with the fleet-level per-slot
// aggregates reduced in fixed site order. Results are byte-identical at
// every parallelism level, and a one-site fleet with GeoRouterNone
// reproduces Simulate exactly.
func RunGeo(cfg GeoOptions) (*GeoResult, error) { return geo.Run(cfg) }
