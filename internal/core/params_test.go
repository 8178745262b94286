package core

import (
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/sim"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	mut := func(f func(*Params)) Params {
		p := DefaultParams()
		f(&p)
		return p
	}
	bad := []Params{
		mut(func(p *Params) { p.V = 0 }),
		mut(func(p *Params) { p.V = math.NaN() }),
		mut(func(p *Params) { p.Epsilon = 0 }),
		mut(func(p *Params) { p.Epsilon = math.Inf(1) }),
		mut(func(p *Params) { p.T = 0 }),
		mut(func(p *Params) { p.DdtMaxMWh = 0 }),
		mut(func(p *Params) { p.CommitWindow = -1 }),
		// The plant's own rules are sim.TestPlantValidate's; one case
		// shows Params applies them.
		mut(func(p *Params) { p.EmergencyCostUSD = 10 }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestTheorem2Bounds(t *testing.T) {
	p := DefaultParams() // V=1, T=24, Pmax=150, Ddtmax=1, eps=0.5
	vp := 1.0 * 150 / 24
	if got := p.QMax(); math.Abs(got-(vp+1)) > 1e-12 {
		t.Errorf("QMax = %g, want %g", got, vp+1)
	}
	if got := p.YMax(); math.Abs(got-(vp+0.5)) > 1e-12 {
		t.Errorf("YMax = %g, want %g", got, vp+0.5)
	}
	if got := p.UMax(); math.Abs(got-(vp+1.5)) > 1e-12 {
		t.Errorf("UMax = %g, want %g", got, vp+1.5)
	}
	wantLambda := int(math.Ceil((2*vp + 1 + 0.5) / 0.5))
	if got := p.LambdaMax(); got != wantLambda {
		t.Errorf("LambdaMax = %d, want %d", got, wantLambda)
	}
}

func TestBoundsScaleWithV(t *testing.T) {
	small := DefaultParams()
	small.V = 0.1
	large := DefaultParams()
	large.V = 5
	if small.QMax() >= large.QMax() {
		t.Error("QMax must grow with V (O(V) delay side of the tradeoff)")
	}
	if small.LambdaMax() >= large.LambdaMax() {
		t.Error("LambdaMax must grow with V")
	}
	if small.UMax() >= large.UMax() {
		t.Error("UMax must grow with V")
	}
}

func TestBoundsShrinkWithT(t *testing.T) {
	shortT := DefaultParams()
	shortT.T = 3
	longT := DefaultParams()
	longT.T = 144
	// Queue bounds are proportional to V·Pmax/T (Theorem 2): larger T
	// means tighter backlog bounds and shorter worst-case delay.
	if shortT.QMax() <= longT.QMax() {
		t.Error("QMax must shrink as T grows")
	}
	if shortT.LambdaMax() <= longT.LambdaMax() {
		t.Error("LambdaMax must shrink as T grows")
	}
}

func TestVMax(t *testing.T) {
	p := DefaultParams()
	// The default 15-minute UPS is smaller than the drift slack, so the
	// theorem's Vmax is negative (vacuous) — the physical caps still hold.
	if got := p.VMax(); got >= 0 {
		t.Logf("VMax = %g (battery large enough for Theorem 2)", got)
	}
	// A big battery must produce a positive Vmax.
	big := p
	big.Battery.CapacityMWh = 100
	big.Battery.InitialMWh = 50
	if got := big.VMax(); got <= 0 {
		t.Errorf("VMax = %g for a 100 MWh battery, want positive", got)
	}
	// Vmax grows with capacity.
	bigger := big
	bigger.Battery.CapacityMWh = 200
	if bigger.VMax() <= big.VMax() {
		t.Error("VMax must grow with battery capacity")
	}
}

func TestXShift(t *testing.T) {
	p := DefaultParams()
	want := p.UMax() + p.Battery.MinLevelMWh + p.Battery.MaxDischargeMWh*p.Battery.DischargeEff
	if got := p.XShift(); math.Abs(got-want) > 1e-12 {
		t.Errorf("XShift = %g, want %g", got, want)
	}
}

// TestBatteryQueueX pins the battery virtual queue of Eq. (14),
// X(t) = b(t) − (Umax + Bmin + Bdmax·ηd), as the controller freezes it
// at a coarse slot: the shift's value at the defaults, X = level − shift,
// and X increasing with the battery level.
func TestBatteryQueueX(t *testing.T) {
	p := DefaultParams()
	// At the defaults: Umax = 150/24 + 1 + 0.5, Bmin = 2/60 MWh (one
	// minute at 2 MW) and Bdmax·ηd = 0.5·1.25.
	shift := 7.75 + 2.0/60 + 0.625
	if got := p.XShift(); math.Abs(got-shift) > 1e-12 {
		t.Fatalf("default XShift = %g, want %g", got, shift)
	}
	frozenX := func(level float64) float64 {
		c, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		c.PlanCoarse(sim.CoarseObs{Slots: 24, PriceLT: 40, DemandDS: 1, Battery: level})
		_, x, _ := c.FrozenState()
		return x
	}
	if got := frozenX(0.5); math.Abs(got-(0.5-shift)) > 1e-12 {
		t.Errorf("X(0.5) = %g, want %g", got, 0.5-shift)
	}
	if frozenX(0.4) <= frozenX(0.1) {
		t.Error("X must increase with the battery level")
	}
}
