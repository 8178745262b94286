package experiments

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// Fig6VValues are the control-parameter points of Fig. 6(a)(b).
var Fig6VValues = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// Fig6VSweep reproduces Fig. 6(a)(b): time-average operation cost and
// average service delay as V varies, for SmartDPSS against the Impatient
// and offline-optimal baselines, with T = 24, ε = 0.5 and a 15-minute UPS.
// The V-independent baselines and every V point run as independent pool
// jobs.
func Fig6VSweep(cfg Config) (*Table, error) {
	traces, err := baseTraces(cfg)
	if err != nil {
		return nil, err
	}
	opts := dpss.DefaultOptions()

	// Jobs 0..len(V)-1 are the V points; the two trailing jobs are the
	// V-independent Impatient and (unless skipped) offline baselines.
	jobs := len(Fig6VValues) + 2
	reports, err := suite.Map(cfg, jobs, func(i int) (*dpss.Report, error) {
		switch i {
		case len(Fig6VValues):
			return simulate(dpss.PolicyImpatient, opts, traces)
		case len(Fig6VValues) + 1:
			if cfg.SkipOffline {
				return nil, nil
			}
			return defaultOffline(cfg, cfg.TraceConfig(), traces)
		default:
			o := opts
			o.V = Fig6VValues[i]
			return simulate(dpss.PolicySmartDPSS, o, traces)
		}
	})
	if err != nil {
		return nil, err
	}
	impatient := reports[len(Fig6VValues)]
	offline := reports[len(Fig6VValues)+1]

	t := &Table{
		Title: "Fig. 6(a)(b) — time-average cost and mean delay vs V",
		Note: "T=24, ε=0.5, Bmax=15 min; Impatient and OfflineOptimal are V-independent;\n" +
			"expected shape: cost ↓ towards offline as V grows, delay ↑ roughly linearly (Theorem 2).",
		Columns: []string{"V", "smart $/slot", "smart delay", "impatient $/slot", "impatient delay",
			"offline $/slot", "offline delay"},
	}
	for i, v := range Fig6VValues {
		rep := reports[i]
		offCost, offDelay := "n/a", "n/a"
		if offline != nil {
			offCost, offDelay = fmtUSD(offline.TimeAvgCostUSD), fmtF(offline.MeanDelaySlots)
		}
		t.AddRow(fmt.Sprintf("%.2f", v),
			fmtUSD(rep.TimeAvgCostUSD), fmtF(rep.MeanDelaySlots),
			fmtUSD(impatient.TimeAvgCostUSD), fmtF(impatient.MeanDelaySlots),
			offCost, offDelay)
	}
	return t, nil
}

// Fig6TValues are the coarse-interval lengths of Fig. 6(c)(d), in fine
// slots (3 hours to 6 days).
var Fig6TValues = []int{3, 6, 12, 24, 48, 72, 144}

// Fig6TSweep reproduces Fig. 6(c)(d): cost and delay as the long-term
// market period T varies, with V = 1 and ε = 0.5. The paper reports cost
// fluctuating only within [−3.65%, +6.23%] of the T=24 level while delay
// falls as T grows (queue bounds ∝ V·Pmax/T). Each T point is a pool job.
func Fig6TSweep(cfg Config) (*Table, error) {
	traces, err := baseTraces(cfg)
	if err != nil {
		return nil, err
	}
	opts := dpss.DefaultOptions()

	points, err := suite.Map(cfg, len(Fig6TValues), func(i int) (*dpss.Report, error) {
		o := opts
		o.T = Fig6TValues[i]
		return simulate(dpss.PolicySmartDPSS, o, traces)
	})
	if err != nil {
		return nil, err
	}
	var ref float64
	for i, T := range Fig6TValues {
		if T == 24 {
			ref = points[i].TimeAvgCostUSD
		}
	}
	if ref == 0 && len(points) > 0 {
		ref = points[0].TimeAvgCostUSD
	}

	t := &Table{
		Title: "Fig. 6(c)(d) — time-average cost and mean delay vs T",
		Note: "V=1, ε=0.5, Bmax=15 min; 'vs T=24' is the relative cost change against the day-ahead setting;\n" +
			"expected shape: cost roughly flat in T, delay ↓ as T grows.",
		Columns: []string{"T (slots)", "cost $/slot", "vs T=24", "mean delay (slots)", "max delay"},
	}
	for i, T := range Fig6TValues {
		p := points[i]
		t.AddRow(fmt.Sprintf("%d", T), fmtUSD(p.TimeAvgCostUSD), fmtPct(p.TimeAvgCostUSD/ref-1),
			fmtF(p.MeanDelaySlots), fmt.Sprintf("%d", p.MaxDelaySlots))
	}
	return t, nil
}
