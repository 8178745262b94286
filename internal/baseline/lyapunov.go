package baseline

import (
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/sim"
)

// Lyapunov is the forecast-free stored-energy baseline of Urgaonkar et
// al. (arXiv:1103.3099): a drift-plus-penalty controller over the
// battery's virtual queue alone. The state of charge is perturbed around
// a target level θ and each slot's charge/discharge direction follows a
// price threshold derived from the one-slot drift bound —
//
//	charge    when V·p + ηc·(b − θ) < 0   (price below ηc·(θ−b)/V)
//	discharge when V·p + ηd·(b − θ) > 0   (price above ηd·(θ−b)/V)
//
// with b the current level, p the slot's real-time price and ηc ≤ 1 ≤ ηd
// the charge/discharge efficiency factors (the two conditions are
// disjoint for any non-negative price). Small V keeps the battery pinned
// at θ (queue-dominated); large V chases price spreads aggressively. The
// policy observes only the current slot — no price or demand forecast —
// which makes it the canonical competitor for SmartDPSS's forecast-driven
// dispatch. Workload service is Impatient's (everything now, trailing-
// mean coarse purchase, the same checkpoint state), embedded so the
// comparison isolates the storage policy; like Impatient it never
// dispatches on-site generation.
type Lyapunov struct {
	Impatient
	v     float64
	theta float64
}

var (
	_ sim.Controller  = (*Lyapunov)(nil)
	_ sim.Snapshotter = (*Lyapunov)(nil)
)

// NewLyapunov returns the Lyapunov battery policy. v is the
// cost-vs-queue weight (non-positive selects the scale-aware default
// usable-span/Pmax, which balances the two threshold terms at the price
// cap); thetaFrac places the target level inside the usable band
// [Bmin, Bmax] (non-positive selects 0.6).
func NewLyapunov(cfg Config, v, thetaFrac float64) (*Lyapunov, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	span := cfg.Battery.CapacityMWh - cfg.Battery.MinLevelMWh
	if v <= 0 {
		v = span / cfg.PmaxUSD
	}
	if thetaFrac <= 0 {
		thetaFrac = 0.6
	}
	if thetaFrac > 1 {
		return nil, fmt.Errorf("baseline: lyapunov theta fraction %g outside (0, 1]", thetaFrac)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("baseline: lyapunov V %g is not finite", v)
	}
	return &Lyapunov{
		Impatient: Impatient{cfg: cfg},
		v:         v,
		theta:     cfg.Battery.MinLevelMWh + thetaFrac*span,
	}, nil
}

// Name implements sim.Controller.
func (l *Lyapunov) Name() string { return "Lyapunov" }

// PlanFine serves all demand now (delay-sensitive first, then backlog up
// to capacity, exactly as Impatient) and sets the battery direction from
// the drift-plus-penalty thresholds on slot-observable state only.
func (l *Lyapunov) PlanFine(obs *sim.FineObs) sim.Decision {
	l.est.Observe(obs.DemandDS, obs.DemandDT, obs.Renewable)
	base := obs.LongTermDue + obs.Renewable
	grtCap := max(0, min(obs.RTHeadroom, l.cfg.SmaxMWh-base))
	x := obs.Battery - l.theta
	etaC := l.cfg.Battery.ChargeEff
	etaD := l.cfg.Battery.DischargeEff

	var dec sim.Decision
	switch {
	case l.v*obs.PriceRT+etaD*x > 0:
		// Discharge regime: the battery is a supply source alongside the
		// grid, preferred over real-time purchases at this price. Only
		// useful discharge is scheduled — energy pushed past demand would
		// be wasted, which no drift bound rewards.
		capacity := base + obs.MaxDischarge + grtCap
		serve := min(min(obs.Backlog, obs.SdtMax),
			max(0, capacity-obs.DemandDS))
		dec.ServeDT = serve
		need := obs.DemandDS + serve - base
		if need > 0 {
			dec.Discharge = min(need, obs.MaxDischarge)
			dec.Grt = min(need-dec.Discharge, grtCap)
			return dec
		}
		// Long-term surplus: absorb it rather than waste it (free energy
		// beats the threshold's grid-price calculus either way).
		dec.Charge = min(-need, obs.MaxCharge)
		return dec
	case l.v*obs.PriceRT+etaC*x < 0:
		// Charge regime: serve demand from the grid and spend any spare
		// real-time headroom filling the battery at this price.
		capacity := base + grtCap
		serve := min(min(obs.Backlog, obs.SdtMax),
			max(0, capacity-obs.DemandDS))
		dec.ServeDT = serve
		deficit := obs.DemandDS + serve - base
		grt := clamp(deficit, 0, grtCap)
		surplus := max(0, -deficit)
		fromSurplus := min(surplus, obs.MaxCharge)
		fromGrid := min(obs.MaxCharge-fromSurplus, grtCap-grt)
		dec.Grt = grt + fromGrid
		dec.Charge = fromSurplus + fromGrid
		return dec
	default:
		// Deadband: no arbitrage. Serve like Impatient — grid first,
		// battery only as the last-resort UPS — and absorb surplus.
		return l.serveNow(obs)
	}
}
