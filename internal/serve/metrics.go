package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/smartdpss/smartdpss/internal/engine"
)

// ContentType is the OpenMetrics media type served on /metrics.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// MetricsSnapshot is one consistent scrape of the daemon: the session's
// live status plus the service-level counters, captured under the
// daemon's lock so every sample in an exposition describes the same slot.
type MetricsSnapshot struct {
	Policy      string
	Controller  string
	Status      engine.SessionStatus
	Checkpoints uint64

	// LPFailures is ignored: no streaming policy solves an LP.
	//
	// Deprecated: it stays only because the end-to-end benchmark in
	// bench/ (bench/stream.go) still sets it; it goes with that write.
	LPFailures int
}

// snapshotMetrics captures a consistent MetricsSnapshot.
func (d *Daemon) snapshotMetrics() MetricsSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return MetricsSnapshot{
		Policy:      string(d.sess.Policy()),
		Controller:  d.sess.ControllerName(),
		Status:      d.sess.Status(),
		Checkpoints: d.checkpoints,
	}
}

// WriteExposition renders the snapshot as OpenMetrics 1.0 text — TYPE
// before samples, counters with the _total suffix, `# EOF` terminator —
// exactly what ValidateExposition and promtool accept. The text is
// appended into one pooled buffer, without fmt or per-call escapers,
// and reaches w in a single Write; label values get the OpenMetrics
// escape (backslash, double quote and newline) once.
func WriteExposition(w io.Writer, m MetricsSnapshot) error {
	bp := expositionBufs.Get().(*[]byte)
	*bp = appendExposition((*bp)[:0], &m)
	_, err := w.Write(*bp)
	expositionBufs.Put(bp)
	return err
}

// expositionBufs recycles exposition buffers across scrapes.
var expositionBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendExposition appends the exposition of m to b.
func appendExposition(b []byte, m *MetricsSnapshot) []byte {
	s := &m.Status
	b = appendFamily(b, "smartdpss_session", "info", "Policy and controller identity of the served session.")
	b = append(b, `smartdpss_session_info{policy="`...)
	b = appendLabelValue(b, m.Policy)
	b = append(b, `",controller="`...)
	b = appendLabelValue(b, m.Controller)
	b = append(b, "\"} 1\n"...)

	b = appendFamily(b, "smartdpss_slots", "counter", "Fine slots committed so far.")
	b = appendSample(b, "smartdpss_slots_total", float64(s.Slot))

	b = appendFamily(b, "smartdpss_horizon_slots", "gauge", "Total fine slots in the session horizon.")
	b = appendSample(b, "smartdpss_horizon_slots", float64(s.Horizon))

	b = appendFamily(b, "smartdpss_cost_usd", "counter", "Accumulated cost by component, USD.")
	b = appendSample(b, `smartdpss_cost_usd_total{component="longterm"}`, s.LTCostUSD)
	b = appendSample(b, `smartdpss_cost_usd_total{component="realtime"}`, s.RTCostUSD)
	b = appendSample(b, `smartdpss_cost_usd_total{component="battery_op"}`, s.BatteryOpUSD)
	b = appendSample(b, `smartdpss_cost_usd_total{component="waste"}`, s.WasteCostUSD)
	b = appendSample(b, `smartdpss_cost_usd_total{component="gen_fuel"}`, s.GenFuelUSD)
	b = appendSample(b, `smartdpss_cost_usd_total{component="gen_startup"}`, s.GenStartupUSD)
	b = appendSample(b, `smartdpss_cost_usd_total{component="emergency"}`, s.EmergencyCostUSD)

	b = appendFamily(b, "smartdpss_total_cost_usd", "counter", "Accumulated total cost across all components, USD.")
	b = appendSample(b, "smartdpss_total_cost_usd_total", s.TotalCostUSD)

	b = appendFamily(b, "smartdpss_energy_mwh", "counter", "Accumulated energy by source or sink, MWh.")
	b = appendSample(b, `smartdpss_energy_mwh_total{source="longterm"}`, s.LTEnergyMWh)
	b = appendSample(b, `smartdpss_energy_mwh_total{source="realtime"}`, s.RTEnergyMWh)
	b = appendSample(b, `smartdpss_energy_mwh_total{source="renewable"}`, s.RenewableMWh)
	b = appendSample(b, `smartdpss_energy_mwh_total{source="generation"}`, s.GenEnergyMWh)
	b = appendSample(b, `smartdpss_energy_mwh_total{source="served_dt"}`, s.ServedDTMWh)
	b = appendSample(b, `smartdpss_energy_mwh_total{source="waste"}`, s.WasteMWh)
	b = appendSample(b, `smartdpss_energy_mwh_total{source="unserved"}`, s.UnservedMWh)

	b = appendFamily(b, "smartdpss_co2_kg", "counter", "Accumulated on-site generation CO2, kg.")
	b = appendSample(b, "smartdpss_co2_kg_total", s.GenCO2Kg)

	b = appendFamily(b, "smartdpss_backlog_mwh", "gauge", "Delay-tolerant backlog currently queued, MWh.")
	b = appendSample(b, "smartdpss_backlog_mwh", s.BacklogMWh)

	b = appendFamily(b, "smartdpss_battery_mwh", "gauge", "Battery level, MWh.")
	b = appendSample(b, "smartdpss_battery_mwh", s.BatteryMWh)

	b = appendFamily(b, "smartdpss_battery_ops", "counter", "Battery charge/discharge operations.")
	b = appendSample(b, "smartdpss_battery_ops_total", float64(s.BatteryOps))

	b = appendFamily(b, "smartdpss_peak_grid_mw", "gauge", "Peak grid draw so far, MW.")
	b = appendSample(b, "smartdpss_peak_grid_mw", s.PeakGridMW)

	b = appendFamily(b, "smartdpss_unavailable_slots", "counter", "Slots with unserved delay-sensitive demand.")
	b = appendSample(b, "smartdpss_unavailable_slots_total", float64(s.Unavailable))

	b = appendFamily(b, "smartdpss_checkpoints", "counter", "Checkpoint files written.")
	b = appendSample(b, "smartdpss_checkpoints_total", float64(m.Checkpoints))

	return append(b, "# EOF\n"...)
}

// appendFamily appends the TYPE/HELP header of one metric family.
func appendFamily(b []byte, name, typ, help string) []byte {
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, "\n# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	return append(b, '\n')
}

// appendSample appends one sample line; series is the sample name with
// its label block, if any.
func appendSample(b []byte, series string, value float64) []byte {
	b = append(b, series...)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, value, 'g', -1, 64)
	return append(b, '\n')
}

// appendLabelValue appends v with the OpenMetrics label-value escapes.
func appendLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// Handler returns the daemon's HTTP surface:
//
//	/metrics — OpenMetrics text exposition
//	/healthz — liveness probe, plain "ok"
//	/status  — engine.SessionStatus as JSON
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		m := d.snapshotMetrics()
		w.Header().Set("Content-Type", ContentType)
		if err := WriteExposition(w, m); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		m := d.snapshotMetrics()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Policy      string               `json:"policy"`
			Controller  string               `json:"controller"`
			Checkpoints uint64               `json:"checkpoints"`
			Status      engine.SessionStatus `json:"status"`
		}{m.Policy, m.Controller, m.Checkpoints, m.Status})
	})
	return mux
}
