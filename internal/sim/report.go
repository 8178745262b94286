package sim

import (
	"fmt"
	"strings"

	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/market"
	"github.com/smartdpss/smartdpss/internal/metrics"
	"github.com/smartdpss/smartdpss/internal/queue"
)

// slotRecord carries one executed slot into the report.
type slotRecord struct {
	slot          int
	gridDrawMW    float64
	nearPeak      bool
	cost          float64
	ltCost        float64
	rtCost        float64
	opCost        float64
	wasteCost     float64
	waste         float64
	unserved      float64
	emergencyCost float64
	backlog       float64
	battery       float64
	renewable     float64
	served        float64
	genMWh        float64
	genFuelUSD    float64
	genStartUSD   float64
	genCO2Kg      float64
	batteryMoved  bool
	available     bool
}

// Report summarizes one simulation run. Cost fields follow the paper's
// Cost(τ) decomposition: long-term grid, real-time grid, UPS operation and
// wasted energy. The emergency penalty (unserved delay-sensitive demand) is
// reported separately because the paper's model assumes it never happens.
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

	// Queue and battery extremes.
	BacklogMaxMWh  float64 `json:"backlogMaxMWh"`
	BacklogMeanMWh float64 `json:"backlogMeanMWh"`
	BatteryMinMWh  float64 `json:"batteryMinMWh"`
	BatteryMaxMWh  float64 `json:"batteryMaxMWh"`
	BatteryOps     int     `json:"batteryOps"`

	// PeakGridMW is the largest observed grid draw in MW; PeakChargeUSD is
	// the demand charge it incurs (reported separately from Cost(τ), like
	// the emergency penalty — see Config.PeakChargeUSDPerMW).
	// NearPeakSlots counts slots drawing above 95% of the Pgrid cap — the
	// "power peak emergencies" of the paper's Sec. IV-C remark.
	PeakGridMW    float64 `json:"peakGridMW"`
	PeakChargeUSD float64 `json:"peakChargeUSD"`
	NearPeakSlots int     `json:"nearPeakSlots"`

	// Availability is the fraction of slots with full delay-sensitive
	// service and the battery at or above its reserve.
	Availability           float64 `json:"availability"`
	AvailabilityViolations int     `json:"availabilityViolations"`

	// Optional per-slot series (see Config.KeepSeries).
	CostSeries    []float64 `json:"costSeries,omitempty"`
	BacklogSeries []float64 `json:"backlogSeries,omitempty"`
	BatterySeries []float64 `json:"batterySeries,omitempty"`

	costStream    *metrics.Stream
	backlogStream *metrics.Stream
	unavailable   int
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

func newReport(controller string, horizon int, keepSeries bool) *Report {
	r := &Report{
		Controller:    controller,
		costStream:    metrics.NewStream(),
		backlogStream: metrics.NewStream(),
	}
	if keepSeries {
		r.CostSeries = make([]float64, 0, horizon)
		r.BacklogSeries = make([]float64, 0, horizon)
		r.BatterySeries = make([]float64, 0, horizon)
	}
	return r
}

// ReportState is the in-progress report in checkpoint form: the running
// accumulators (the exported Report fields, finalize-derived ones still
// zero mid-run) plus the streaming statistics and the availability
// counter that live in unexported fields.
type ReportState struct {
	Summary       Report              `json:"summary"`
	CostStream    metrics.StreamState `json:"costStream"`
	BacklogStream metrics.StreamState `json:"backlogStream"`
	Unavailable   int                 `json:"unavailable"`
}

// state captures the in-progress report for a checkpoint.
func (r *Report) state() ReportState {
	return ReportState{
		Summary:       *r,
		CostStream:    r.costStream.State(),
		BacklogStream: r.backlogStream.State(),
		Unavailable:   r.unavailable,
	}
}

// restoreReport rebuilds an in-progress report from a checkpoint. The
// session's own keepSeries setting governs the series (the config hash
// pins it to the snapshotting session's anyway); with series kept, the
// recorded prefix is copied into fresh capacity-horizon buffers so
// appends stay allocation-free for the rest of the run.
func restoreReport(s ReportState, controller string, horizon int, keepSeries bool) *Report {
	r := newReport(controller, horizon, keepSeries)
	costs, backlogs, batteries := r.CostSeries, r.BacklogSeries, r.BatterySeries
	costStream, backlogStream := r.costStream, r.backlogStream
	*r = s.Summary
	r.Controller = controller
	r.costStream, r.backlogStream = costStream, backlogStream
	r.costStream.Restore(s.CostStream)
	r.backlogStream.Restore(s.BacklogStream)
	r.unavailable = s.Unavailable
	if keepSeries {
		r.CostSeries = append(costs[:0], s.Summary.CostSeries...)
		r.BacklogSeries = append(backlogs[:0], s.Summary.BacklogSeries...)
		r.BatterySeries = append(batteries[:0], s.Summary.BatterySeries...)
	} else {
		r.CostSeries, r.BacklogSeries, r.BatterySeries = nil, nil, nil
	}
	return r
}

func (r *Report) recordSlot(rec slotRecord) {
	r.Slots++
	r.TotalCostUSD += rec.cost
	r.LTCostUSD += rec.ltCost
	r.RTCostUSD += rec.rtCost
	r.BatteryOpUSD += rec.opCost
	r.WasteCostUSD += rec.wasteCost
	r.EmergencyCostUSD += rec.emergencyCost
	r.GenFuelUSD += rec.genFuelUSD
	r.GenStartupUSD += rec.genStartUSD
	r.GenEnergyMWh += rec.genMWh
	r.GenCO2Kg += rec.genCO2Kg
	r.WasteMWh += rec.waste
	r.UnservedMWh += rec.unserved
	r.RenewableMWh += rec.renewable
	r.ServedDTMWh += rec.served
	r.costStream.Add(rec.cost)
	r.backlogStream.Add(rec.backlog)
	if rec.gridDrawMW > r.PeakGridMW {
		r.PeakGridMW = rec.gridDrawMW
	}
	if rec.nearPeak {
		r.NearPeakSlots++
	}
	if !rec.available {
		r.unavailable++
	}
	if r.CostSeries != nil {
		r.CostSeries = append(r.CostSeries, rec.cost)
		r.BacklogSeries = append(r.BacklogSeries, rec.backlog)
		r.BatterySeries = append(r.BatterySeries, rec.battery)
	}
}

func (r *Report) finalize(batt *battery.Battery, fleet *generator.Fleet, acct *market.Account, backlog *queue.Backlog) {
	if r.Slots > 0 {
		r.TimeAvgCostUSD = r.TotalCostUSD / float64(r.Slots)
		r.Availability = 1 - float64(r.unavailable)/float64(r.Slots)
	}
	r.AvailabilityViolations = r.unavailable
	r.LTEnergyMWh = acct.LongTermEnergy()
	r.RTEnergyMWh = acct.RealTimeEnergy()
	totals := fleet.Totals()
	r.GenStarts = totals.Starts
	r.GenSlots = totals.OpSlots
	if fleet.Size() > 0 {
		r.GenUnits = make([]GenUnitReport, fleet.Size())
		for i := range r.GenUnits {
			u := fleet.Unit(i)
			r.GenUnits[i] = GenUnitReport{
				CapacityMWh: u.Params().CapacityMWh,
				EnergyMWh:   u.EnergyTotal(),
				FuelUSD:     u.FuelCostTotal(),
				StartupUSD:  u.StartupCostTotal(),
				CO2Kg:       u.CO2Total(),
				Starts:      u.Starts(),
				OpSlots:     u.OpSlots(),
			}
		}
	}
	r.BatteryOps = batt.Ops()
	r.BatteryInMWh = batt.ChargedTotal()
	r.BatteryOutMWh = batt.DischargedTotal()
	r.MeanDelaySlots = backlog.MeanDelay()
	r.MaxDelaySlots = backlog.MaxDelay()
	r.BacklogMaxMWh = r.backlogStream.Max()
	r.BacklogMeanMWh = r.backlogStream.Mean()
	if r.BatterySeries != nil && len(r.BatterySeries) > 0 {
		min, max := r.BatterySeries[0], r.BatterySeries[0]
		for _, v := range r.BatterySeries {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		r.BatteryMinMWh, r.BatteryMaxMWh = min, max
	} else {
		r.BatteryMinMWh = batt.Level()
		r.BatteryMaxMWh = batt.Level()
	}
	r.scrubZeros()
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
// summary fields, per-unit breakdowns and the optional per-slot series —
// so sequential/parallel and pre/post-refactor runs can never differ by
// a sign bit on a zero, in text or JSON output.
func (r *Report) scrubZeros() {
	for _, f := range []*float64{
		&r.TotalCostUSD, &r.LTCostUSD, &r.RTCostUSD, &r.BatteryOpUSD,
		&r.WasteCostUSD, &r.GenFuelUSD, &r.GenStartupUSD, &r.EmergencyCostUSD,
		&r.TimeAvgCostUSD, &r.LTEnergyMWh, &r.RTEnergyMWh, &r.RenewableMWh,
		&r.GenEnergyMWh, &r.WasteMWh, &r.UnservedMWh, &r.ServedDTMWh,
		&r.BatteryInMWh, &r.BatteryOutMWh, &r.GenCO2Kg, &r.MeanDelaySlots,
		&r.BacklogMaxMWh, &r.BacklogMeanMWh, &r.BatteryMinMWh, &r.BatteryMaxMWh,
		&r.PeakGridMW, &r.PeakChargeUSD,
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
	for _, series := range [][]float64{r.CostSeries, r.BacklogSeries, r.BatterySeries} {
		for i, v := range series {
			series[i] = cleanZero(v)
		}
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
