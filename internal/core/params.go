package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/sim"
)

// Params configures a SmartDPSS controller: the plant it plans
// against (shared with the session that executes its decisions) plus
// the controller's own knobs. Energy is in MWh per fine slot, prices in
// USD/MWh. Inside P5 the plant's EmergencyCostUSD is the shadow price
// of unserved delay-sensitive demand, and every fleet unit contributes
// its own fuel-priced source legs — segments of the unit's dispatch
// window — and its committed capacity to P4's deficit estimate.
type Params struct {
	sim.Plant
	// V is the Lyapunov cost–delay tradeoff parameter: larger V weights
	// cost reduction over queue (delay) control, giving the
	// [O(1/V), O(V)] tradeoff of Theorem 2.
	V float64
	// Epsilon is the ε of the delay-aware virtual queue Y (Eq. 12):
	// larger ε forces faster service and shorter worst-case delay.
	Epsilon float64
	// T is the number of fine slots per coarse slot (the long-term-ahead
	// market period).
	T int
	// DdtMaxMWh is the per-slot delay-tolerant arrival bound Ddtmax.
	DdtMaxMWh float64
	// CommitWindow is the unit-commitment lookahead W in fine slots:
	// start/stop decisions weigh the projected margin over the next W
	// slots (forecast long-term price and demand envelope) against the
	// full startup cost. W ≤ 1 is the myopic per-slot arm with
	// amortized-startup hysteresis — the pre-fleet behavior, and the
	// degenerate case the lookahead must reproduce.
	CommitWindow int
	// DisableLongTerm removes the long-term-ahead market, leaving only
	// real-time purchases (the "RTM" configuration of Fig. 7).
	DisableLongTerm bool
	// SnapshotPlanning makes P4 estimate the upcoming interval from the
	// single boundary slot, as Algorithm 1 literally reads ("observing
	// ... the demand d(t) and renewable r(t) generated during time slot
	// t"), instead of the trailing means of the previous interval. Kept
	// as an ablation switch; see the EXT-4 experiment.
	SnapshotPlanning bool
}

// DefaultParams returns the paper's Sec. VI-A configuration: V = 1,
// ε = 0.5, T = 24 one-hour slots, Ddtmax = 1 MWh and sim.DefaultPlant
// (Pgrid = 2 MW, a 15-minute UPS).
func DefaultParams() Params {
	return Params{Plant: sim.DefaultPlant(), V: 1.0, Epsilon: 0.5, T: 24, DdtMaxMWh: 1.0}
}

// Validate reports parameter errors: the controller's own fields, then
// the plant.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"V", p.V}, {"Epsilon", p.Epsilon}, {"DdtMaxMWh", p.DdtMaxMWh}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("core: %s must be positive and finite", f.name)
		}
	}
	switch {
	case p.T <= 0:
		return errors.New("core: T must be positive")
	case p.CommitWindow < 0:
		return errors.New("core: negative CommitWindow")
	}
	return p.Plant.Validate()
}

// QMax is the deterministic backlog bound of Theorem 2(3):
// Qmax = V·Pmax/T + Ddtmax.
func (p Params) QMax() float64 {
	return p.V*p.PmaxUSD/float64(p.T) + p.DdtMaxMWh
}

// YMax is the delay-queue bound of Theorem 2(3): Ymax = V·Pmax/T + ε.
func (p Params) YMax() float64 {
	return p.V*p.PmaxUSD/float64(p.T) + p.Epsilon
}

// UMax bounds Q(t)+Y(t) (Eq. 25): Umax = V·Pmax/T + Ddtmax + ε.
func (p Params) UMax() float64 {
	return p.V*p.PmaxUSD/float64(p.T) + p.DdtMaxMWh + p.Epsilon
}

// LambdaMax is the worst-case delay bound of Theorem 2(4) in slots:
// λmax = ⌈(2V·Pmax/T + Ddtmax + ε)/ε⌉, saturated at math.MaxInt when it
// does not fit an int, as it does not for a tiny ε such as 1e-18.
func (p Params) LambdaMax() int {
	l := math.Ceil((2*p.V*p.PmaxUSD/float64(p.T) + p.DdtMaxMWh + p.Epsilon) / p.Epsilon)
	if !(l < math.MaxInt) { // float64(math.MaxInt) rounds up to 2⁶³
		return math.MaxInt
	}
	return int(l)
}

// VMax is the largest V for which Theorem 2's battery-bound argument
// applies (Sec. V-A):
//
//	Vmax = T·(Bmax − Bmin − Bdmax·ηd − Bcmax·ηc − Ddtmax − ε)/Pmax.
//
// For small UPS installations the numerator can be negative, making the
// theorem vacuous; the controller still keeps b(τ) within its physical
// bounds through the hard rate and level limits.
func (p Params) VMax() float64 {
	b := p.Battery
	num := b.CapacityMWh - b.MinLevelMWh - b.MaxDischargeMWh*b.DischargeEff -
		b.MaxChargeMWh*b.ChargeEff - p.DdtMaxMWh - p.Epsilon
	return float64(p.T) * num / p.PmaxUSD
}

// XShift is the constant of the battery virtual queue (Eq. 14):
// X(t) = b(t) − (Umax + Bmin + Bdmax·ηd).
func (p Params) XShift() float64 {
	return p.UMax() + p.Battery.MinLevelMWh + p.Battery.MaxDischargeMWh*p.Battery.DischargeEff
}
