package baseline

import (
	"encoding/json"
	"fmt"

	"github.com/smartdpss/smartdpss/internal/jsonenc"
	"github.com/smartdpss/smartdpss/internal/sim"
)

// Impatient is the paper's online strawman: it serves every unit of demand
// as soon as it appears, at whatever the market charges, with no strategic
// deferral, no price-aware storage and no on-site generator dispatch (a
// cost-optimization asset an impatient operator never touches). The UPS
// is used only passively —
// surplus energy is absorbed rather than wasted, and the battery covers
// deficits only when the grid cannot (last resort), which is how an inline
// UPS behaves in the absence of a control policy.
type Impatient struct {
	cfg Config
	est sim.TrailingMeans
}

var _ sim.Controller = (*Impatient)(nil)

// NewImpatient returns the Impatient policy.
func NewImpatient(cfg Config) (*Impatient, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Impatient{cfg: cfg}, nil
}

// Name implements sim.Controller.
func (i *Impatient) Name() string { return "Impatient" }

// CoarseSlots implements sim.Controller.
func (i *Impatient) CoarseSlots() int { return i.cfg.T }

// PlanCoarse buys the observed net demand for every slot of the interval —
// no price consideration, no queue strategy. Like SmartDPSS it estimates
// the interval from the trailing means of the previous one (the snapshot
// at the boundary, often midnight, would systematically under-buy).
func (i *Impatient) PlanCoarse(obs sim.CoarseObs) float64 {
	dds, ddt, ren := obs.DemandDS, obs.DemandDT, obs.Renewable
	if i.est.Ready() {
		dds, ddt, ren = i.est.Means()
	}
	i.est.Reset()
	need := dds + ddt - ren
	perSlot := clamp(need, 0, i.cfg.PgridMWh)
	return perSlot * float64(obs.Slots)
}

// PlanFine feeds the trailing-mean estimator and serves the slot with
// serveNow.
func (i *Impatient) PlanFine(obs *sim.FineObs) sim.Decision {
	i.est.Observe(obs.DemandDS, obs.DemandDT, obs.Renewable)
	return i.serveNow(obs)
}

// serveNow serves all delay-sensitive demand plus as much backlog as the
// remaining supply capacity allows, buying real-time power for any
// shortfall and falling back to the battery only when the grid is
// exhausted. Delay-sensitive demand has strict priority: backlog service
// never claims capacity that dds needs. Surplus charges the battery.
func (i *Impatient) serveNow(obs *sim.FineObs) sim.Decision {
	base := obs.LongTermDue + obs.Renewable
	grtCap := max(0, min(obs.RTHeadroom, i.cfg.SmaxMWh-base))
	capacity := base + grtCap + obs.MaxDischarge
	serve := min(min(obs.Backlog, obs.SdtMax),
		max(0, capacity-obs.DemandDS))
	deficit := obs.DemandDS + serve - base

	var dec sim.Decision
	dec.ServeDT = serve
	if deficit > 0 {
		dec.Grt = min(deficit, grtCap)
		if remaining := deficit - dec.Grt; remaining > 0 {
			dec.Discharge = min(remaining, obs.MaxDischarge)
		}
		return dec
	}
	dec.Charge = min(-deficit, obs.MaxCharge)
	return dec
}

// RecordOutcome implements sim.Controller; Impatient keeps no state.
func (i *Impatient) RecordOutcome(sim.Outcome) {}

var _ sim.Snapshotter = (*Impatient)(nil)

// impatientState is the checkpoint form of Impatient and Lyapunov: only
// the trailing-mean estimator survives across slots (Config, V and θ
// are pinned by the session checkpoint's config hash).
type impatientState struct {
	Est sim.TrailingMeansState `json:"est"`
}

// AppendState implements sim.Snapshotter, as json.Marshal encodes
// impatientState.
func (i *Impatient) AppendState(dst []byte) ([]byte, error) {
	e := jsonenc.NewEncoder(dst)
	e.Open()
	i.est.State().AppendJSON(e.Key("est"))
	e.Close()
	return e.Bytes()
}

// RestoreState implements sim.Snapshotter.
func (i *Impatient) RestoreState(data []byte) error {
	var s impatientState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("baseline: decode impatient state: %w", err)
	}
	i.est.Restore(s.Est)
	return nil
}

func clamp(x, lo, hi float64) float64 { return min(hi, max(lo, x)) }
