package experiments

// The "provision" scenario family extends the paper's evaluation with
// the on-site power production questions of "Dynamic Provisioning in
// Next-Generation Data Centers with On-site Power Production"
// (arXiv:1303.6775): how much dispatchable generation and how much
// storage a datacenter should buy (PROV-1), where the fuel/grid
// break-even sits (PROV-2), and the ROADMAP's wider V × T cross sweep
// now that the parallel suite engine makes dense grids cheap (PROV-3).
// Every sweep point is an independent pool job, so the tables are
// byte-identical at any parallelism level.

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// ProvisionGenMW are the generator capacities of the provisioning grid
// (MW of dispatchable on-site production; 0 = none).
var ProvisionGenMW = []float64{0, 0.25, 0.5, 1.0}

// ProvisionBatteryMinutes are the UPS sizes of the provisioning grid
// (minutes of peak demand, the Fig. 7 axis).
var ProvisionBatteryMinutes = []float64{0, 15, 30, 60}

// provisionGenOptions equips o with the family's one-unit fleet: genMW
// of capacity (0: none) with a 20% minimum stable load, a modest startup
// charge and a fuel price of 45 USD/MWh — above the long-term price
// level (~38) but below the real-time mean (~47), so the unit
// substitutes real-time purchases and peak prices without being free
// baseload.
func provisionGenOptions(o dpss.Options, genMW float64) dpss.Options {
	o.Fleet = []dpss.UnitSpec{{CapacityMW: genMW, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, StartupUSD: 10}}
	return o
}

// ProvisionGrid reproduces the provisioning question of arXiv:1303.6775
// as a generator-capacity × battery-size grid under SmartDPSS: each cell
// reports its cost and how much the generation capacity saves over the
// generator-free column at the same battery size. Expected reading: the
// generator's saving shrinks as the battery grows (both assets harvest
// the same price spreads), and capacity beyond the spiky share of demand
// is idle capital.
func ProvisionGrid(cfg Config) (*Table, error) {
	traces, err := baseTraces(cfg)
	if err != nil {
		return nil, err
	}
	nb := len(ProvisionBatteryMinutes)
	jobs := len(ProvisionGenMW) * nb
	reports, err := suite.Map(cfg, jobs, func(i int) (*dpss.Report, error) {
		o := provisionGenOptions(dpss.DefaultOptions(), ProvisionGenMW[i/nb])
		o.BatteryMinutes = ProvisionBatteryMinutes[i%nb]
		return simulate(dpss.PolicySmartDPSS, o, traces)
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "PROV-1 — on-site generator capacity × battery size provisioning grid",
		Note: "SmartDPSS, V=1, T=24; fuel 45 $/MWh, min load 20%, startup $10;\n" +
			"'saving' is against the generator-free cell at the same battery size;\n" +
			"expected: saving grows (sublinearly) with capacity, and generator and\n" +
			"battery savings overlap — each shrinks the other's.",
		Columns: []string{"gen MW", "Bmax (min)", "cost $/slot", "saving", "gen MWh", "gen share", "battery ops", "mean delay"},
	}
	for i, rep := range reports {
		base := reports[i%nb] // generator-free cell of this battery column
		supplied := rep.LTEnergyMWh + rep.RTEnergyMWh + rep.RenewableMWh + rep.GenEnergyMWh
		share := 0.0
		if supplied > 0 {
			share = rep.GenEnergyMWh / supplied
		}
		t.AddRow(
			fmt.Sprintf("%.2f", ProvisionGenMW[i/nb]),
			fmt.Sprintf("%g", ProvisionBatteryMinutes[i%nb]),
			fmtUSD(rep.TimeAvgCostUSD),
			fmtPct(1-rep.TotalCostUSD/base.TotalCostUSD),
			fmtF(rep.GenEnergyMWh),
			fmtPct(share),
			fmt.Sprintf("%d", rep.BatteryOps),
			fmtF(rep.MeanDelaySlots),
		)
	}
	return t, nil
}

// ProvisionFuelValues are the fuel prices of the sensitivity sweep
// (USD/MWh), spanning below-long-term (baseload-cheap) to above the
// real-time spike range (idle capital).
var ProvisionFuelValues = []float64{30, 45, 60, 85, 110, 140}

// ProvisionPriceScales are the grid-price multipliers of the second
// sweep block (TraceConfig.PriceScale), moving the markets against a
// fixed fuel price.
var ProvisionPriceScales = []float64{0.8, 1.25}

// ProvisionFuel sweeps the fuel price at a fixed 0.5 MW unit, then the
// grid-price scale at a fixed 45 $/MWh fuel price — the two directions
// of the same break-even. Expected reading: generation share falls
// monotonically with the fuel price and rises with the grid price.
func ProvisionFuel(cfg Config) (*Table, error) {
	traces, err := baseTraces(cfg)
	if err != nil {
		return nil, err
	}
	nf := len(ProvisionFuelValues)
	jobs := nf + len(ProvisionPriceScales)
	reports, err := suite.Map(cfg, jobs, func(i int) (*dpss.Report, error) {
		o := provisionGenOptions(dpss.DefaultOptions(), 0.5)
		if i < nf {
			o.Fleet[0].FuelUSDPerMWh = ProvisionFuelValues[i]
			return simulate(dpss.PolicySmartDPSS, o, traces)
		}
		// Grid-price block: same scenario, scaled price series (its own
		// cached trace generation per scale). Scaling the price world
		// scales the market cap with it, or scaled-up spikes would fall
		// outside [0, Pmax].
		scale := ProvisionPriceScales[i-nf]
		tc := cfg.TraceConfig()
		tc.PriceScale = scale
		scaled, err := suite.Traces(tc)
		if err != nil {
			return nil, err
		}
		defer suite.Release(scaled)
		o.PmaxUSD *= scale
		return simulate(dpss.PolicySmartDPSS, o, scaled)
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "PROV-2 — fuel-price and grid-price sensitivity of on-site generation",
		Note: "SmartDPSS, 0.5 MW unit, min load 20%, startup $10; Bmax=15 min;\n" +
			"'price xk' rows rescale both market price series at fuel 45 $/MWh;\n" +
			"expected: generation share ↓ with fuel price, ↑ with grid prices.",
		Columns: []string{"variant", "cost $/slot", "gen MWh", "gen share", "fuel $", "grid MWh", "battery ops"},
	}
	for i, rep := range reports {
		label := ""
		if i < nf {
			label = fmt.Sprintf("fuel=%g $/MWh", ProvisionFuelValues[i])
		} else {
			// ASCII only: Table.Fprint pads by byte length.
			label = fmt.Sprintf("price x%.2f fuel=45", ProvisionPriceScales[i-nf])
		}
		supplied := rep.LTEnergyMWh + rep.RTEnergyMWh + rep.RenewableMWh + rep.GenEnergyMWh
		share := 0.0
		if supplied > 0 {
			share = rep.GenEnergyMWh / supplied
		}
		t.AddRow(label,
			fmtUSD(rep.TimeAvgCostUSD),
			fmtF(rep.GenEnergyMWh),
			fmtPct(share),
			fmtUSD(rep.GenFuelUSD+rep.GenStartupUSD),
			fmtF(rep.LTEnergyMWh+rep.RTEnergyMWh),
			fmt.Sprintf("%d", rep.BatteryOps),
		)
	}
	return t, nil
}

// ProvisionVValues and ProvisionTValues span the V × T cross sweep of
// the ROADMAP's wider-grid item.
var (
	ProvisionVValues = []float64{0.25, 1, 4}
	ProvisionTValues = []int{6, 12, 24, 48}
)

// ProvisionVT runs the full V × T cross sweep the paper only samples
// axis-by-axis (Fig. 6): every combination of the cost–delay knob V and
// the market period T. Expected reading: delay grows with V and shrinks
// with T (both queue bounds carry V·Pmax/T), while cost falls with V and
// stays roughly flat in T — i.e. the axes are nearly separable, which is
// what makes the paper's per-axis tuning sound.
func ProvisionVT(cfg Config) (*Table, error) {
	traces, err := baseTraces(cfg)
	if err != nil {
		return nil, err
	}
	nt := len(ProvisionTValues)
	jobs := len(ProvisionVValues) * nt
	reports, err := suite.Map(cfg, jobs, func(i int) (*dpss.Report, error) {
		o := dpss.DefaultOptions()
		o.V = ProvisionVValues[i/nt]
		o.T = ProvisionTValues[i%nt]
		return simulate(dpss.PolicySmartDPSS, o, traces)
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "PROV-3 — V × T cross sweep (cost and delay over the full grid)",
		Note: "SmartDPSS, ε=0.5, Bmax=15 min, no generator; Fig. 6 samples these axes\n" +
			"one at a time — the cross grid checks they stay separable.",
		Columns: []string{"V", "T (slots)", "cost $/slot", "mean delay", "max delay", "backlog max MWh"},
	}
	for i, rep := range reports {
		t.AddRow(
			fmt.Sprintf("%.2f", ProvisionVValues[i/nt]),
			fmt.Sprintf("%d", ProvisionTValues[i%nt]),
			fmtUSD(rep.TimeAvgCostUSD),
			fmtF(rep.MeanDelaySlots),
			fmt.Sprintf("%d", rep.MaxDelaySlots),
			fmtF(rep.BacklogMaxMWh),
		)
	}
	return t, nil
}
