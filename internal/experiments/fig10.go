package experiments

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// Fig10Betas are the system-expansion factors of Fig. 10.
var Fig10Betas = []float64{1, 2, 5, 10}

// Fig10Scaling reproduces Fig. 10: time-average total cost as the system
// expands to β times the current demand and renewable production
// (Sec. V-C). The grid connection grows with the datacenter, but the UPS
// "cannot be enlarged proportionally and stays fixed due to limits of
// space and capital cost". The paper's reading: total cost grows almost
// linearly with β while the per-unit cost falls (the growth rate slows).
// Each β is a pool job scaling its own private clone of the cached
// traces.
func Fig10Scaling(cfg Config) (*Table, error) {
	rows, err := suite.Map(cfg, len(Fig10Betas), func(i int) ([]string, error) {
		beta := Fig10Betas[i]
		traces, err := baseTraces(cfg)
		if err != nil {
			return nil, err
		}
		defer suite.Release(traces)
		traces.ScaleSystem(beta)

		opts := dpss.DefaultOptions()
		opts.PeakMW = 2.0 * beta      // grid connection grows with the DC
		opts.BatteryReferenceMW = 2.0 // UPS stays at the original size
		rep, err := simulate(dpss.PolicySmartDPSS, opts, traces)
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("%.0f", beta),
			fmtUSD(rep.TimeAvgCostUSD), fmtUSD(rep.TimeAvgCostUSD / beta),
			fmtF(rep.MeanDelaySlots), fmtF(rep.UnservedMWh)}, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Fig. 10 — time-average total cost under system expansion β",
		Note: "demand and renewables scaled by β, Pgrid scaled, UPS fixed at the β=1 size;\n" +
			"expected: total cost near-linear in β, per-unit cost ↓.",
		Columns: []string{"beta", "cost $/slot", "cost per unit ($/slot/beta)", "mean delay", "unserved MWh"},
	}
	t.Rows = rows
	return t, nil
}
