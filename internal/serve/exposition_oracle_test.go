package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// expositionWriter accumulates OpenMetrics families, tracking the first
// write error so call sites stay linear.
type expositionWriter struct {
	w   io.Writer
	err error
}

func (e *expositionWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// family emits the TYPE/HELP header for one metric family.
func (e *expositionWriter) family(name, typ, help string) {
	e.printf("# TYPE %s %s\n", name, typ)
	e.printf("# HELP %s %s\n", name, help)
}

// sample emits one sample line. labels is a preformatted `{...}` block
// or empty.
func (e *expositionWriter) sample(name, labels string, value float64) {
	e.printf("%s%s %s\n", name, labels, strconv.FormatFloat(value, 'g', -1, 64))
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// writeExpositionFmt is the fmt-based exposition writer WriteExposition
// replaced, kept verbatim as the oracle of its parity test.
func writeExpositionFmt(w io.Writer, m MetricsSnapshot) error {
	e := &expositionWriter{w: w}
	s := m.Status

	e.family("smartdpss_session", "info", "Policy and controller identity of the served session.")
	e.sample("smartdpss_session_info",
		fmt.Sprintf("{policy=%q,controller=%q}", escapeLabel(m.Policy), escapeLabel(m.Controller)), 1)

	e.family("smartdpss_slots", "counter", "Fine slots committed so far.")
	e.sample("smartdpss_slots_total", "", float64(s.Slot))

	e.family("smartdpss_horizon_slots", "gauge", "Total fine slots in the session horizon.")
	e.sample("smartdpss_horizon_slots", "", float64(s.Horizon))

	e.family("smartdpss_cost_usd", "counter", "Accumulated cost by component, USD.")
	for _, c := range []struct {
		component string
		value     float64
	}{
		{"longterm", s.LTCostUSD},
		{"realtime", s.RTCostUSD},
		{"battery_op", s.BatteryOpUSD},
		{"waste", s.WasteCostUSD},
		{"gen_fuel", s.GenFuelUSD},
		{"gen_startup", s.GenStartupUSD},
		{"emergency", s.EmergencyCostUSD},
	} {
		e.sample("smartdpss_cost_usd_total",
			fmt.Sprintf("{component=%q}", c.component), c.value)
	}

	e.family("smartdpss_total_cost_usd", "counter", "Accumulated total cost across all components, USD.")
	e.sample("smartdpss_total_cost_usd_total", "", s.TotalCostUSD)

	e.family("smartdpss_energy_mwh", "counter", "Accumulated energy by source or sink, MWh.")
	for _, c := range []struct {
		source string
		value  float64
	}{
		{"longterm", s.LTEnergyMWh},
		{"realtime", s.RTEnergyMWh},
		{"renewable", s.RenewableMWh},
		{"generation", s.GenEnergyMWh},
		{"served_dt", s.ServedDTMWh},
		{"waste", s.WasteMWh},
		{"unserved", s.UnservedMWh},
	} {
		e.sample("smartdpss_energy_mwh_total",
			fmt.Sprintf("{source=%q}", c.source), c.value)
	}

	e.family("smartdpss_co2_kg", "counter", "Accumulated on-site generation CO2, kg.")
	e.sample("smartdpss_co2_kg_total", "", s.GenCO2Kg)

	e.family("smartdpss_backlog_mwh", "gauge", "Delay-tolerant backlog currently queued, MWh.")
	e.sample("smartdpss_backlog_mwh", "", s.BacklogMWh)

	e.family("smartdpss_battery_mwh", "gauge", "Battery level, MWh.")
	e.sample("smartdpss_battery_mwh", "", s.BatteryMWh)

	e.family("smartdpss_battery_ops", "counter", "Battery charge/discharge operations.")
	e.sample("smartdpss_battery_ops_total", "", float64(s.BatteryOps))

	e.family("smartdpss_peak_grid_mw", "gauge", "Peak grid draw so far, MW.")
	e.sample("smartdpss_peak_grid_mw", "", s.PeakGridMW)

	e.family("smartdpss_unavailable_slots", "counter", "Slots with unserved delay-sensitive demand.")
	e.sample("smartdpss_unavailable_slots_total", "", float64(s.Unavailable))

	e.family("smartdpss_checkpoints", "counter", "Checkpoint files written.")
	e.sample("smartdpss_checkpoints_total", "", float64(m.Checkpoints))

	e.printf("# EOF\n")
	return e.err
}
