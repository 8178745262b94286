package experiments

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// ExtForesightValues are the lookahead windows (fine slots) swept by
// ExtForesight.
var ExtForesightValues = []int{1, 6, 24}

// ExtForesight (EXT-5) prices perfect short-range forecasts: it compares
// forecast-free SmartDPSS against receding-horizon Lookahead controllers
// with growing windows of perfect foresight (the "T-Step Lookahead" family
// of the paper's related work [29], [30]) and the clairvoyant offline
// benchmark. The gap between SmartDPSS and Lookahead(W) is the most a
// W-slot forecaster could be worth; the paper's thesis is that this gap
// is small — Lyapunov control extracts most of the value without any
// forecasting machinery. SmartDPSS, every window and the offline
// benchmark run as independent pool jobs.
func ExtForesight(cfg Config) (*Table, error) {
	traces, err := baseTraces(cfg)
	if err != nil {
		return nil, err
	}
	opts := dpss.DefaultOptions()

	// Job 0 is SmartDPSS, jobs 1..len(W) the lookahead windows, and the
	// last job the offline benchmark (skipped under SkipOffline).
	nW := len(ExtForesightValues)
	reports, err := suite.Map(cfg, nW+2, func(i int) (*dpss.Report, error) {
		switch {
		case i == 0:
			return simulate(dpss.PolicySmartDPSS, opts, traces)
		case i == nW+1:
			if cfg.SkipOffline {
				return nil, nil
			}
			return defaultOffline(cfg, cfg.TraceConfig(), traces)
		default:
			o := opts
			o.LookaheadWindow = ExtForesightValues[i-1]
			return simulate(dpss.PolicyLookahead, o, traces)
		}
	})
	if err != nil {
		return nil, err
	}
	smart := reports[0]

	t := &Table{
		Title: "EXT-5 — the value of foresight: SmartDPSS vs T-step lookahead",
		Note: "V=1, T=24, Bmax=15 min; Lookahead(W) re-solves an LP over the next W slots with\n" +
			"perfect foresight each slot; SmartDPSS uses none. Expected: foresight helps, but the\n" +
			"forecast-free Lyapunov policy stays close.",
		Columns: []string{"controller", "cost $/slot", "mean delay", "vs SmartDPSS"},
	}
	t.AddRow("SmartDPSS (no foresight)", fmtUSD(smart.TimeAvgCostUSD),
		fmtF(smart.MeanDelaySlots), "+0.00%")
	for i, w := range ExtForesightValues {
		rep := reports[i+1]
		t.AddRow(fmt.Sprintf("Lookahead(%d)", w), fmtUSD(rep.TimeAvgCostUSD),
			fmtF(rep.MeanDelaySlots), fmtPct(rep.TimeAvgCostUSD/smart.TimeAvgCostUSD-1))
	}
	if off := reports[nW+1]; off != nil {
		t.AddRow("OfflineOptimal (full)", fmtUSD(off.TimeAvgCostUSD),
			fmtF(off.MeanDelaySlots), fmtPct(off.TimeAvgCostUSD/smart.TimeAvgCostUSD-1))
	}
	return t, nil
}
