// Package experiments reproduces every figure of the SmartDPSS evaluation
// (Sec. VI): the one-month input traces (Fig. 5), the V and T sensitivity
// sweeps (Fig. 6), the ε/market-structure/battery-size factors (Fig. 7),
// renewable penetration and demand variation (Fig. 8), robustness to
// estimation errors (Fig. 9), and system-expansion scalability (Fig. 10).
// Beyond the paper it adds the extension studies (TagExt, ext-*) and the
// on-site power provisioning family (TagProvision, prov-*): the
// generator/battery sizing grid and fuel break-even of arXiv:1303.6775
// plus the full V×T cross sweep.
//
// Each runner returns a Table whose rows mirror the series the paper
// plots; cmd/experiments prints them and EXPERIMENTS.md records measured
// outputs against the paper's qualitative claims. Absolute dollar values
// differ from the paper (synthetic traces stand in for MIDC/NYISO/Google
// data), but the shapes — who wins, what is monotone, where benefits
// order — are the reproduction targets.
//
// Every runner registers itself as a suite.Scenario (see registry.go),
// and every inner sweep loop is fanned out on the suite worker pool via
// suite.Map with results assembled in index order, so tables are
// byte-identical at any parallelism level. Trace sets come from the
// shared suite cache: concurrent scenarios that need the same synthetic
// month get private clones of one generation instead of regenerating it.
// Results that several scenarios compute from the same inputs — the tune
// family's two searches, the base month's default-options OfflineOptimal
// replay — are computed once per suite run (suite.Once) and shared.
package experiments

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// Config scopes an experiment run (an alias of suite.Config, so runners
// plug straight into the suite registry).
type Config = suite.Config

// DefaultConfig matches the paper's one-month setup.
func DefaultConfig() Config { return suite.DefaultConfig() }

// Table is a printable experiment result (an alias of suite.Table).
type Table = suite.Table

// baseTraces fetches the run's base trace set from the shared suite
// cache.
func baseTraces(cfg Config) (*dpss.Traces, error) {
	return suite.Traces(cfg.TraceConfig())
}

// offlineKey names a default-options OfflineOptimal replay by the trace
// configuration of its month.
type offlineKey struct{ tc dpss.TraceConfig }

// defaultOffline replays OfflineOptimal at the default options on
// traces, the unmodified cached set for tc. fig6v, ext-mpc and ext-seeds
// all replay the base month this way, so within a suite run each month
// is replayed once (suite.Once) and the report, which callers only
// read, is shared; outside a run every call replays.
func defaultOffline(cfg Config, tc dpss.TraceConfig, traces *dpss.Traces) (*dpss.Report, error) {
	return suite.Once(cfg, offlineKey{tc}, func() (*dpss.Report, error) {
		return simulate(dpss.PolicyOfflineOptimal, dpss.DefaultOptions(), traces)
	})
}

// fmtUSD formats a dollar amount.
func fmtUSD(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtF formats a generic float.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct formats a ratio as a signed percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%+.2f%%", 100*v) }

// simulate is a small helper with uniform error context.
func simulate(policy dpss.Policy, opts dpss.Options, tr *dpss.Traces) (*dpss.Report, error) {
	rep, err := dpss.Simulate(policy, opts, tr)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", policy, err)
	}
	return rep, nil
}
