package sim

import (
	"fmt"
	"strings"
)

// Report summarizes one simulation run. Cost fields follow the paper's
// Cost(τ) decomposition: long-term grid, real-time grid, UPS operation and
// wasted energy. The emergency penalty (unserved delay-sensitive demand) is
// reported separately because the paper's model assumes it never happens.
//
// A Report is plain output: Session.Finish builds it once from the
// session's Totals and the market, battery, backlog and fleet ledgers,
// and nothing updates it afterwards. It holds run-level figures only;
// a slot's cost, backlog and battery level are in the SlotOutcome that
// Session.Commit returns for that slot.
type Report struct {
	Controller string `json:"controller"`
	Slots      int    `json:"slots"`

	// Cost totals in USD. The two generator lines (fuel and startup) are
	// part of TotalCostUSD, extending the paper's Cost(τ) decomposition
	// with the on-site generation source of arXiv:1303.6775.
	TotalCostUSD     float64 `json:"totalCostUSD"`
	LTCostUSD        float64 `json:"ltCostUSD"`
	RTCostUSD        float64 `json:"rtCostUSD"`
	BatteryOpUSD     float64 `json:"batteryOpUSD"`
	WasteCostUSD     float64 `json:"wasteCostUSD"`
	GenFuelUSD       float64 `json:"genFuelUSD,omitempty"`
	GenStartupUSD    float64 `json:"genStartupUSD,omitempty"`
	EmergencyCostUSD float64 `json:"emergencyCostUSD"`

	// TimeAvgCostUSD is TotalCostUSD / Slots, the paper's Cost_av.
	TimeAvgCostUSD float64 `json:"timeAvgCostUSD"`

	// Energy totals in MWh.
	LTEnergyMWh   float64 `json:"ltEnergyMWh"`
	RTEnergyMWh   float64 `json:"rtEnergyMWh"`
	RenewableMWh  float64 `json:"renewableMWh"`
	GenEnergyMWh  float64 `json:"genEnergyMWh,omitempty"`
	WasteMWh      float64 `json:"wasteMWh"`
	UnservedMWh   float64 `json:"unservedMWh"`
	ServedDTMWh   float64 `json:"servedDTMWh"`
	BatteryInMWh  float64 `json:"batteryInMWh"`
	BatteryOutMWh float64 `json:"batteryOutMWh"`

	// On-site generation accounting: cold starts, slots with positive
	// output, and fleet emissions (zero when no fleet is configured).
	GenStarts int     `json:"genStarts,omitempty"`
	GenSlots  int     `json:"genSlots,omitempty"`
	GenCO2Kg  float64 `json:"genCO2Kg,omitempty"`

	// GenUnits is the per-unit breakdown of the fleet accounting, in
	// fleet order (nil when no fleet is configured).
	GenUnits []GenUnitReport `json:"genUnits,omitempty"`

	// Delay statistics over served delay-tolerant energy, in slots.
	MeanDelaySlots float64 `json:"meanDelaySlots"`
	MaxDelaySlots  int     `json:"maxDelaySlots"`

	// Queue and battery extremes over the post-slot states. A report of
	// zero slots has a zero backlog and the current battery level as
	// both battery extremes.
	BacklogMaxMWh  float64 `json:"backlogMaxMWh"`
	BacklogMeanMWh float64 `json:"backlogMeanMWh"`
	BatteryMinMWh  float64 `json:"batteryMinMWh"`
	BatteryMaxMWh  float64 `json:"batteryMaxMWh"`
	BatteryOps     int     `json:"batteryOps"`

	// PeakGridMW is the largest slot's grid draw, in MWh over an hourly
	// slot and so in MW; PeakChargeUSD is the demand charge it incurs
	// (reported separately from Cost(τ), like the emergency penalty — see
	// Config.PeakChargeUSDPerMW).
	// NearPeakSlots counts slots drawing above 95% of the Pgrid cap — the
	// "power peak emergencies" of the paper's Sec. IV-C remark.
	PeakGridMW    float64 `json:"peakGridMW"`
	PeakChargeUSD float64 `json:"peakChargeUSD"`
	NearPeakSlots int     `json:"nearPeakSlots"`

	// Availability is the fraction of slots with full delay-sensitive
	// service and the battery at or above its reserve.
	Availability           float64 `json:"availability"`
	AvailabilityViolations int     `json:"availabilityViolations"`
}

// GenUnitReport is one fleet unit's lifetime accounting.
type GenUnitReport struct {
	CapacityMWh float64 `json:"capacityMWh"`
	EnergyMWh   float64 `json:"energyMWh"`
	FuelUSD     float64 `json:"fuelUSD"`
	StartupUSD  float64 `json:"startupUSD"`
	CO2Kg       float64 `json:"co2Kg"`
	Starts      int     `json:"starts"`
	OpSlots     int     `json:"opSlots"`
}

// Totals are the running totals of a session that no component keeps:
// the per-slot sum of Cost(τ) and of its parts the market does not
// bill, the slot energy flows, the backlog mean and maximum, the
// post-slot battery extremes, the peak grid draw and the availability
// count. Commit updates them, a Checkpoint carries them as its report
// block, and Status and Finish read them together with the market,
// battery, backlog and fleet ledgers.
//
// Some totals have a component counterpart that groups or counts the
// same flows differently, so the report keeps the session's sums:
// TotalCostUSD is the per-slot sum of Cost(τ), not the sum of its
// parts; the Gen* totals sum the fleet's per-slot outcomes, not the
// units' ledgers; ServedDTMWh sums the slot service, not the backlog's
// ledger; and BatteryOpUSD bills every slot with a positive executed
// charge or discharge, where the battery counts an operation only
// above 1e-9 MWh. Before the first slot the battery extremes are zero;
// Finish then reports the current level as both.
type Totals struct {
	TotalCostUSD     float64 `json:"totalCostUSD"`
	BatteryOpUSD     float64 `json:"batteryOpUSD"`
	WasteCostUSD     float64 `json:"wasteCostUSD"`
	GenFuelUSD       float64 `json:"genFuelUSD,omitempty"`
	GenStartupUSD    float64 `json:"genStartupUSD,omitempty"`
	EmergencyCostUSD float64 `json:"emergencyCostUSD"`

	RenewableMWh float64 `json:"renewableMWh"`
	GenEnergyMWh float64 `json:"genEnergyMWh,omitempty"`
	WasteMWh     float64 `json:"wasteMWh"`
	UnservedMWh  float64 `json:"unservedMWh"`
	ServedDTMWh  float64 `json:"servedDTMWh"`
	GenCO2Kg     float64 `json:"genCO2Kg,omitempty"`

	// BacklogMeanMWh is the running (Welford) mean of the post-slot
	// backlog.
	BacklogMeanMWh float64 `json:"backlogMeanMWh"`
	BacklogMaxMWh  float64 `json:"backlogMaxMWh"`
	BatteryMinMWh  float64 `json:"batteryMinMWh"`
	BatteryMaxMWh  float64 `json:"batteryMaxMWh"`
	PeakGridMW     float64 `json:"peakGridMW"`
	NearPeakSlots  int     `json:"nearPeakSlots"`
	// Unavailable counts slots with unserved delay-sensitive demand or
	// the battery below its reserve.
	Unavailable int `json:"unavailable"`
}

// report builds the Report of the committed slots from the session's
// totals and its component ledgers.
func (s *Session) report() *Report {
	t := &s.tot
	r := &Report{
		Controller:       s.ctrl.Name(),
		Slots:            s.slot,
		TotalCostUSD:     t.TotalCostUSD,
		LTCostUSD:        s.acct.LongTermCost(),
		RTCostUSD:        s.acct.RealTimeCost(),
		BatteryOpUSD:     t.BatteryOpUSD,
		WasteCostUSD:     t.WasteCostUSD,
		GenFuelUSD:       t.GenFuelUSD,
		GenStartupUSD:    t.GenStartupUSD,
		EmergencyCostUSD: t.EmergencyCostUSD,

		LTEnergyMWh:   s.acct.LongTermEnergy(),
		RTEnergyMWh:   s.acct.RealTimeEnergy(),
		RenewableMWh:  t.RenewableMWh,
		GenEnergyMWh:  t.GenEnergyMWh,
		WasteMWh:      t.WasteMWh,
		UnservedMWh:   t.UnservedMWh,
		ServedDTMWh:   t.ServedDTMWh,
		BatteryInMWh:  s.batt.ChargedTotal(),
		BatteryOutMWh: s.batt.DischargedTotal(),

		GenCO2Kg: t.GenCO2Kg,

		MeanDelaySlots: s.backlog.MeanDelay(),
		MaxDelaySlots:  s.backlog.MaxDelay(),

		BacklogMaxMWh:  t.BacklogMaxMWh,
		BacklogMeanMWh: t.BacklogMeanMWh,
		BatteryMinMWh:  t.BatteryMinMWh,
		BatteryMaxMWh:  t.BatteryMaxMWh,
		BatteryOps:     s.batt.Ops(),

		PeakGridMW:    t.PeakGridMW,
		NearPeakSlots: t.NearPeakSlots,

		AvailabilityViolations: t.Unavailable,
	}
	if r.Slots > 0 {
		r.TimeAvgCostUSD = r.TotalCostUSD / float64(r.Slots)
		r.Availability = 1 - float64(t.Unavailable)/float64(r.Slots)
	} else {
		r.BatteryMinMWh, r.BatteryMaxMWh = s.batt.Level(), s.batt.Level()
	}
	if s.fleet.Size() > 0 {
		r.GenUnits = make([]GenUnitReport, s.fleet.Size())
		for i := range r.GenUnits {
			u := s.fleet.Unit(i)
			r.GenUnits[i] = GenUnitReport{
				CapacityMWh: u.Params().CapacityMWh,
				EnergyMWh:   u.EnergyTotal(),
				FuelUSD:     u.FuelCostTotal(),
				StartupUSD:  u.StartupCostTotal(),
				CO2Kg:       u.CO2Total(),
				Starts:      u.Starts(),
				OpSlots:     u.OpSlots(),
			}
			r.GenStarts += u.Starts()
			r.GenSlots += u.OpSlots()
		}
	}
	r.scrubZeros()
	r.PeakChargeUSD = r.PeakGridMW * s.cfg.PeakChargeUSDPerMW
	return r
}

// zeroEps is the residual magnitude below which an accumulated report
// value is numerical noise rather than signal: well under any printed
// precision, far above float64 round-off from a month of accumulation.
const zeroEps = 1e-9

// cleanZero collapses negative zero and sub-epsilon residuals to +0.
// Accumulating ±round-off (or IEEE negative zeros, which survive
// summation: -0 + -0 = -0) can leave a semantically zero total with a
// sign bit set, printing as "-0.00" and breaking byte-level comparisons
// between otherwise identical runs.
func cleanZero(v float64) float64 {
	if v > -zeroEps && v < zeroEps {
		return 0
	}
	return v
}

// scrubZeros normalizes every accumulated float the report exports —
// summary fields and per-unit breakdowns — so sequential/parallel and pre/post-refactor runs can never differ by
// a sign bit on a zero, in text or JSON output.
func (r *Report) scrubZeros() {
	for _, f := range []*float64{
		&r.TotalCostUSD, &r.LTCostUSD, &r.RTCostUSD, &r.BatteryOpUSD,
		&r.WasteCostUSD, &r.GenFuelUSD, &r.GenStartupUSD, &r.EmergencyCostUSD,
		&r.TimeAvgCostUSD, &r.LTEnergyMWh, &r.RTEnergyMWh, &r.RenewableMWh,
		&r.GenEnergyMWh, &r.WasteMWh, &r.UnservedMWh, &r.ServedDTMWh,
		&r.BatteryInMWh, &r.BatteryOutMWh, &r.GenCO2Kg, &r.MeanDelaySlots,
		&r.BacklogMaxMWh, &r.BacklogMeanMWh, &r.BatteryMinMWh, &r.BatteryMaxMWh,
		&r.PeakGridMW,
	} {
		*f = cleanZero(*f)
	}
	for i := range r.GenUnits {
		u := &r.GenUnits[i]
		u.EnergyMWh = cleanZero(u.EnergyMWh)
		u.FuelUSD = cleanZero(u.FuelUSD)
		u.StartupUSD = cleanZero(u.StartupUSD)
		u.CO2Kg = cleanZero(u.CO2Kg)
	}
}

// String renders a compact multi-line summary for logs and CLI output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "controller=%s slots=%d\n", r.Controller, r.Slots)
	fmt.Fprintf(&b, "  cost: total=$%.2f avg=$%.4f/slot (lt=$%.2f rt=$%.2f ups=$%.2f waste=$%.2f)\n",
		r.TotalCostUSD, r.TimeAvgCostUSD, r.LTCostUSD, r.RTCostUSD, r.BatteryOpUSD, r.WasteCostUSD)
	fmt.Fprintf(&b, "  energy: lt=%.1f rt=%.1f renewable=%.1f waste=%.2f unserved=%.4f MWh\n",
		r.LTEnergyMWh, r.RTEnergyMWh, r.RenewableMWh, r.WasteMWh, r.UnservedMWh)
	fmt.Fprintf(&b, "  delay: mean=%.2f max=%d slots; backlog mean=%.3f max=%.3f MWh\n",
		r.MeanDelaySlots, r.MaxDelaySlots, r.BacklogMeanMWh, r.BacklogMaxMWh)
	fmt.Fprintf(&b, "  battery: ops=%d in=%.2f out=%.2f MWh; availability=%.6f (%d violations)\n",
		r.BatteryOps, r.BatteryInMWh, r.BatteryOutMWh, r.Availability, r.AvailabilityViolations)
	// The generator lines appear only when on-site generation was used,
	// keeping generator-free reports byte-identical to earlier versions;
	// the CO₂ figure and the per-unit breakdown appear only for runs
	// that configure emission intensities / a multi-unit fleet.
	if r.GenStarts > 0 || r.GenEnergyMWh > 0 || r.GenFuelUSD > 0 {
		fmt.Fprintf(&b, "  generator: starts=%d slots=%d energy=%.2f MWh; fuel=$%.2f startup=$%.2f",
			r.GenStarts, r.GenSlots, r.GenEnergyMWh, r.GenFuelUSD, r.GenStartupUSD)
		if r.GenCO2Kg > 0 {
			fmt.Fprintf(&b, " co2=%.1f kg", r.GenCO2Kg)
		}
		fmt.Fprintln(&b)
		if len(r.GenUnits) > 1 {
			for i, u := range r.GenUnits {
				fmt.Fprintf(&b, "    unit %d (%.2f MWh cap): starts=%d slots=%d energy=%.2f MWh; fuel=$%.2f startup=$%.2f co2=%.1f kg\n",
					i, u.CapacityMWh, u.Starts, u.OpSlots, u.EnergyMWh, u.FuelUSD, u.StartupUSD, u.CO2Kg)
			}
		}
	}
	return b.String()
}
