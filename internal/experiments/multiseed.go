package experiments

import (
	"fmt"
	"math"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/metrics"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// MultiSeedSummary (EXT-6) re-runs the headline comparison (Fig. 6(a) at
// V = 1) across independent trace seeds and reports means with standard
// deviations — the statistical robustness check the paper's single-trace
// evaluation lacks. The claim under test: the cost ordering
// Offline < SmartDPSS < Impatient and a double-digit percentage saving
// hold across scenario draws, not just for one lucky month.
//
// Each seed is a pool job with its own derived trace seed
// (Config.PointSeed); the metric streams accumulate in seed order
// afterwards, so the summary is identical at every parallelism level.
func MultiSeedSummary(cfg Config, seeds int) (*Table, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 seeds, got %d", seeds)
	}
	opts := dpss.DefaultOptions()

	type seedRun struct {
		smart, imp, off *dpss.Report
	}
	runs, err := suite.Map(cfg, seeds, func(s int) (seedRun, error) {
		tc := cfg.TraceConfig()
		tc.Seed = cfg.PointSeed(s)
		traces, err := suite.Traces(tc)
		if err != nil {
			return seedRun{}, err
		}
		defer suite.Release(traces)
		var r seedRun
		if r.smart, err = simulate(dpss.PolicySmartDPSS, opts, traces); err != nil {
			return r, err
		}
		if r.imp, err = simulate(dpss.PolicyImpatient, opts, traces); err != nil {
			return r, err
		}
		if !cfg.SkipOffline {
			if r.off, err = defaultOffline(cfg, tc, traces); err != nil {
				return r, err
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	var (
		smartCost = metrics.NewStream()
		smartWins = 0
		impCost   = metrics.NewStream()
		offCost   = metrics.NewStream()
		saving    = metrics.NewStream()
		delay     = metrics.NewStream()
		orderOK   = 0
	)
	for _, r := range runs {
		smartCost.Add(r.smart.TimeAvgCostUSD)
		impCost.Add(r.imp.TimeAvgCostUSD)
		saving.Add(1 - r.smart.TotalCostUSD/r.imp.TotalCostUSD)
		delay.Add(r.smart.MeanDelaySlots)
		if r.smart.TotalCostUSD < r.imp.TotalCostUSD {
			smartWins++
		}
		if r.off != nil {
			offCost.Add(r.off.TimeAvgCostUSD)
			if r.off.TotalCostUSD < r.smart.TotalCostUSD && r.smart.TotalCostUSD < r.imp.TotalCostUSD {
				orderOK++
			}
		}
	}

	t := &Table{
		Title: fmt.Sprintf("EXT-6 — headline result across %d independent seeds", seeds),
		Note: "V=1, T=24, Bmax=15 min; mean ± population std over seeds;\n" +
			"claim under test: the Fig. 6(a) ordering holds across scenario draws.",
		Columns: []string{"metric", "mean", "std", "detail"},
	}
	t.AddRow("SmartDPSS cost $/slot", fmtUSD(smartCost.Mean()), fmtUSD(smartCost.StdDev()),
		fmt.Sprintf("range %.2f..%.2f", smartCost.Min(), smartCost.Max()))
	t.AddRow("Impatient cost $/slot", fmtUSD(impCost.Mean()), fmtUSD(impCost.StdDev()),
		fmt.Sprintf("SmartDPSS cheaper in %d/%d seeds", smartWins, seeds))
	if offCost.Count() > 0 {
		t.AddRow("Offline cost $/slot", fmtUSD(offCost.Mean()), fmtUSD(offCost.StdDev()),
			fmt.Sprintf("full ordering held in %d/%d seeds", orderOK, seeds))
	}
	t.AddRow("cost saving vs Impatient", fmtPct(saving.Mean()), fmtPct(saving.StdDev()),
		fmt.Sprintf("worst seed %s", fmtPct(saving.Min())))
	t.AddRow("mean delay (slots)", fmtF(delay.Mean()), fmtF(delay.StdDev()),
		fmt.Sprintf("max %.2f", delay.Max()))
	if math.IsNaN(saving.Mean()) {
		return nil, fmt.Errorf("experiments: NaN in multi-seed summary")
	}
	return t, nil
}
