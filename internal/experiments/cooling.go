package experiments

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// ExtCooling (EXT-7) exercises the paper's other declared future-work
// item: cooling cost (Sec. IV-C). Demand is coupled through an
// outside-temperature trace and a PUE curve — free cooling at a flat base
// overhead in cold weather, chiller load growing with temperature in hot
// weather. Because hot afternoons coincide with the interactive peak,
// summer cooling raises both the level and the variance of facility
// demand; the experiment measures whether SmartDPSS's advantage over
// Impatient survives the coupling. Each climate is a pool job over its
// own month, generated with its cooling.
func ExtCooling(cfg Config) (*Table, error) {
	climates := []struct {
		label   string
		cooling *dpss.CoolingConfig
	}{
		{"no cooling model", nil},
		{"winter (2 C)", &dpss.CoolingConfig{MeanTempC: 2, Seed: cfg.Seed + 31}},
		{"mild (16 C)", &dpss.CoolingConfig{MeanTempC: 16, Seed: cfg.Seed + 31}},
		{"summer (26 C)", &dpss.CoolingConfig{MeanTempC: 26, Seed: cfg.Seed + 31}},
	}
	rows, err := suite.Map(cfg, len(climates), func(i int) ([]string, error) {
		cl := climates[i]
		tc := cfg.TraceConfig()
		tc.Cooling = cl.cooling
		traces, err := suite.Traces(tc)
		if err != nil {
			return nil, err
		}
		defer suite.Release(traces)
		avgPUE := traces.AveragePUE()
		stats, err := dpss.TraceStatistics(traces)
		if err != nil {
			return nil, err
		}
		demand := stats[0].Sum + stats[1].Sum

		opts := dpss.DefaultOptions()
		smart, err := simulate(dpss.PolicySmartDPSS, opts, traces)
		if err != nil {
			return nil, err
		}
		imp, err := simulate(dpss.PolicyImpatient, opts, traces)
		if err != nil {
			return nil, err
		}
		return []string{cl.label, fmt.Sprintf("%.3f", avgPUE), fmtF(demand),
			fmtUSD(smart.TimeAvgCostUSD), fmtUSD(imp.TimeAvgCostUSD),
			fmtPct(1 - smart.TotalCostUSD/imp.TotalCostUSD)}, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "EXT-7 — cooling coupling (paper future work, Sec. IV-C)",
		Note: "facility demand = IT demand × PUE(outside temperature); winter ≈ free cooling,\n" +
			"summer ≈ chiller regime; expected: demand and cost rise with temperature, the\n" +
			"SmartDPSS saving over Impatient persists.",
		Columns: []string{"climate", "avg PUE", "demand MWh", "smart $/slot", "impatient $/slot", "saving"},
	}
	t.Rows = rows
	return t, nil
}
