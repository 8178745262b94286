package experiments

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// ExtEstimatorAblationTValues are the coarse-interval lengths compared
// by ExtEstimatorAblation.
var ExtEstimatorAblationTValues = []int{6, 24, 72, 144}

// ExtEstimatorAblation (EXT-4) compares the two P4 interval estimators
// across the T sweep: the paper's literal Algorithm 1 reading (plan each
// coarse interval from the single boundary-slot observation) versus this
// library's default (the trailing means of the previous interval). The
// snapshot is adequate at T = 24 with hourly slots but misestimates
// multi-day intervals badly — the reason trailing means are the default
// (see sim.TrailingMeans). Each T (a trailing/snapshot simulation pair) is a pool
// job.
func ExtEstimatorAblation(cfg Config) (*Table, error) {
	traces, err := baseTraces(cfg)
	if err != nil {
		return nil, err
	}

	rows, err := suite.Map(cfg, len(ExtEstimatorAblationTValues), func(i int) ([]string, error) {
		T := ExtEstimatorAblationTValues[i]
		trailing := dpss.DefaultOptions()
		trailing.T = T
		tRep, err := simulate(dpss.PolicySmartDPSS, trailing, traces)
		if err != nil {
			return nil, err
		}
		snapshot := trailing
		snapshot.SnapshotPlanning = true
		sRep, err := simulate(dpss.PolicySmartDPSS, snapshot, traces)
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("%d", T),
			fmtUSD(tRep.TimeAvgCostUSD), fmtUSD(sRep.TimeAvgCostUSD),
			fmtPct(sRep.TimeAvgCostUSD/tRep.TimeAvgCostUSD - 1),
			fmtF(tRep.MeanDelaySlots), fmtF(sRep.MeanDelaySlots)}, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "EXT-4 — P4 interval estimator ablation (snapshot vs trailing mean)",
		Note: "V=1, ε=0.5, Bmax=15 min; snapshot = the paper's literal single-slot observation;\n" +
			"expected: comparable at T=24, snapshot degrades on multi-day intervals.",
		Columns: []string{"T (slots)", "trailing $/slot", "snapshot $/slot", "snapshot penalty",
			"trailing delay", "snapshot delay"},
	}
	t.Rows = rows
	return t, nil
}
