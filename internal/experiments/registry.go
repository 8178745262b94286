package experiments

import "github.com/smartdpss/smartdpss/internal/suite"

// Scenario tags. Every runner carries exactly one of "paper"/"ext" plus
// any trait tags that cut across that split.
const (
	// TagPaper marks the figures of the paper's own evaluation
	// (Sec. VI), in paper order.
	TagPaper = "paper"
	// TagExt marks the extension studies beyond the paper's evaluation.
	TagExt = "ext"
	// TagProvision marks the on-site power provisioning family
	// (arXiv:1303.6775): generator/battery sizing, fuel sensitivity and
	// the wide V×T cross sweep.
	TagProvision = "provision"
	// TagFleet marks the multi-unit generator-fleet family: fleet
	// granularity, the unit-commitment lookahead window, and the
	// carbon-price cost/emissions frontier.
	TagFleet = "fleet"
	// TagAnnual marks the year-long (8760-slot) scenario family
	// unlocked by the sparse revised simplex. It is outside the default
	// paper/ext split so the one-month determinism and golden harnesses
	// never pay for a year of simulation; `make suite` opts in
	// explicitly.
	TagAnnual = "annual"
	// TagGeo marks the geo-distributed multi-site family
	// (arXiv:1308.0585): price-divergence routing, site-count scaling
	// and the latency-penalty frontier over internal/geo's multi-site
	// fleet.
	TagGeo = "geo"
	// TagTune marks the self-tuning family: simulator-in-the-loop
	// parameter search (internal/optimize) over the tunable policy
	// arms, and the SmartDPSS-vs-Lyapunov battery-baseline frontier.
	TagTune = "tune"
	// TagSweep marks scenarios whose runner fans a multi-point sweep
	// out on the worker pool.
	TagSweep = "sweep"
	// TagSlow marks scenarios dominated by offline-LP benchmarks or
	// many full simulations; SkipOffline shortens most of them.
	TagSlow = "slow"
)

// init registers every experiment runner with the suite registry; the
// registration order fixes the default run order (paper figures first,
// then extensions).
func init() {
	for _, s := range []suite.Scenario{
		{
			Name:        "fig5",
			Description: "Fig. 5 — one-month input traces: summary statistics of demand, solar and prices",
			Tags:        []string{TagPaper},
			Run:         Fig5Traces,
		},
		{
			Name:        "fig6v",
			Description: "Fig. 6(a)(b) — cost and delay vs the Lyapunov tradeoff parameter V",
			Tags:        []string{TagPaper, TagSweep, TagSlow},
			Run:         Fig6VSweep,
		},
		{
			Name:        "fig6t",
			Description: "Fig. 6(c)(d) — cost and delay vs the long-term market period T",
			Tags:        []string{TagPaper, TagSweep},
			Run:         Fig6TSweep,
		},
		{
			Name:        "fig7",
			Description: "Fig. 7 — impact of ε, market structure and battery size on cost",
			Tags:        []string{TagPaper, TagSweep},
			Run:         Fig7Factors,
		},
		{
			Name:        "fig8",
			Description: "Fig. 8 — cost vs renewable penetration and demand variation",
			Tags:        []string{TagPaper, TagSweep},
			Run:         Fig8Penetration,
		},
		{
			Name:        "fig9",
			Description: "Fig. 9 — robustness of the cost reduction to ±50% estimation errors",
			Tags:        []string{TagPaper, TagSweep},
			Run:         Fig9Robustness,
		},
		{
			Name:        "fig10",
			Description: "Fig. 10 — total cost under system expansion with a fixed UPS",
			Tags:        []string{TagPaper, TagSweep},
			Run:         Fig10Scaling,
		},
		{
			Name:        "ext-peak",
			Description: "EXT-1 — power peaks and demand charges (paper future work, Sec. IV-C)",
			Tags:        []string{TagExt, TagSweep},
			Run:         ExtPeakManagement,
		},
		{
			Name:        "ext-cycle",
			Description: "EXT-2 — UPS lifetime operation budget Nmax (Eq. 9)",
			Tags:        []string{TagExt, TagSweep},
			Run:         ExtCycleBudget,
		},
		{
			Name:        "ext-mix",
			Description: "EXT-3 — solar/wind/mixed renewable portfolios at equal penetration",
			Tags:        []string{TagExt, TagSweep},
			Run:         ExtRenewableMix,
		},
		{
			Name:        "ext-est",
			Description: "EXT-4 — P4 interval estimator ablation (snapshot vs trailing mean)",
			Tags:        []string{TagExt, TagSweep},
			Run:         ExtEstimatorAblation,
		},
		{
			Name:        "ext-mpc",
			Description: "EXT-5 — the value of foresight: SmartDPSS vs T-step lookahead",
			Tags:        []string{TagExt, TagSweep, TagSlow},
			Run:         ExtForesight,
		},
		{
			Name:        "ext-seeds",
			Description: "EXT-6 — headline comparison across independent trace seeds (Config.Seeds)",
			Tags:        []string{TagExt, TagSweep, TagSlow},
			Run: func(cfg Config) (*Table, error) {
				return MultiSeedSummary(cfg, cfg.SeedCount())
			},
		},
		{
			Name:        "ext-cool",
			Description: "EXT-7 — cooling coupling through temperature and PUE (paper future work)",
			Tags:        []string{TagExt, TagSweep},
			Run:         ExtCooling,
		},
		{
			Name:        "prov-grid",
			Description: "PROV-1 — generator capacity × battery size provisioning grid (arXiv:1303.6775)",
			Tags:        []string{TagProvision, TagSweep},
			Run:         ProvisionGrid,
		},
		{
			Name:        "prov-fuel",
			Description: "PROV-2 — fuel-price and grid-price sensitivity of on-site generation",
			Tags:        []string{TagProvision, TagSweep},
			Run:         ProvisionFuel,
		},
		{
			Name:        "prov-vt",
			Description: "PROV-3 — V × T cross sweep over the full parameter grid",
			Tags:        []string{TagProvision, TagSweep},
			Run:         ProvisionVT,
		},
		{
			Name:        "fleet-mix",
			Description: "FLEET-1 — one nameplate MW split across 1, 2 or 4 equal units",
			Tags:        []string{TagFleet, TagSweep},
			Run:         FleetMix,
		},
		{
			Name:        "fleet-uc",
			Description: "FLEET-2 — unit-commitment window sweep at a near-break-even fuel price",
			Tags:        []string{TagFleet, TagSweep},
			Run:         FleetUC,
		},
		{
			Name:        "fleet-co2",
			Description: "FLEET-3 — cost vs emissions frontier under a carbon price sweep",
			Tags:        []string{TagFleet, TagSweep},
			Run:         FleetCO2,
		},
		{
			Name:        "ext-annual",
			Description: "ANNUAL-1 — year-long comparison with an 8760-slot horizon LP (sparse simplex)",
			Tags:        []string{TagAnnual, TagSweep, TagSlow},
			Run:         ExtAnnual,
		},
		{
			Name:        "geo-div",
			Description: "GEO-1 — workload routing vs regional price divergence (3 sites)",
			Tags:        []string{TagGeo, TagSweep},
			Run:         GeoDivergence,
		},
		{
			Name:        "geo-scale",
			Description: "GEO-2 — fleet scaling from 1 to 8 sites (greedy router)",
			Tags:        []string{TagGeo, TagSweep},
			Run:         GeoScale,
		},
		{
			Name:        "geo-lat",
			Description: "GEO-3 — routing latency-penalty frontier",
			Tags:        []string{TagGeo, TagSweep},
			Run:         GeoLatency,
		},
		{
			Name:        "tune-gap",
			Description: "TUNE-1 — tuned vs default controller parameters per policy arm",
			Tags:        []string{TagTune, TagSweep, TagSlow},
			Run:         TuneGap,
		},
		{
			Name:        "tune-xfer",
			Description: "TUNE-2 — tuning transfer across held-out seeds and price regimes",
			Tags:        []string{TagTune, TagSweep, TagSlow},
			Run:         TuneTransfer,
		},
		{
			Name:        "tune-frontier",
			Description: "TUNE-3 — SmartDPSS vs Lyapunov battery baseline cost frontier",
			Tags:        []string{TagTune, TagSweep, TagSlow},
			Run:         TuneFrontier,
		},
	} {
		suite.Register(s)
	}
}
