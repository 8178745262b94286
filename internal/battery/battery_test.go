package battery

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestBattery(t *testing.T) *Battery {
	t.Helper()
	b, err := New(Sized(2.0, 15, 1))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSizedParams(t *testing.T) {
	p := Sized(2.0, 15, 1)
	if math.Abs(p.CapacityMWh-0.5) > 1e-12 {
		t.Errorf("CapacityMWh = %g, want 0.5 (15 min at 2 MW)", p.CapacityMWh)
	}
	if math.Abs(p.MinLevelMWh-2.0/60) > 1e-12 {
		t.Errorf("MinLevelMWh = %g, want %g (1 min at 2 MW)", p.MinLevelMWh, 2.0/60)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Sized params invalid: %v", err)
	}
}

func TestSizedZeroCapacity(t *testing.T) {
	p := Sized(2.0, 0, 1)
	if p.CapacityMWh != 0 || p.MinLevelMWh != 0 {
		t.Errorf("zero-capacity sizing = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("no-battery params must validate: %v", err)
	}
}

func TestApplyCharge(t *testing.T) {
	b := newTestBattery(t)
	before := b.Level()
	if err := b.Apply(0.1, 0); err != nil {
		t.Fatal(err)
	}
	want := before + 0.1*b.Params().ChargeEff
	if math.Abs(b.Level()-want) > 1e-12 {
		t.Errorf("level = %g, want %g", b.Level(), want)
	}
	if b.Ops() != 1 {
		t.Errorf("ops = %d, want 1", b.Ops())
	}
}

func TestApplyDischarge(t *testing.T) {
	b := newTestBattery(t)
	before := b.Level()
	if err := b.Apply(0, 0.05); err != nil {
		t.Fatal(err)
	}
	want := before - 0.05*b.Params().DischargeEff
	if math.Abs(b.Level()-want) > 1e-12 {
		t.Errorf("level = %g, want %g", b.Level(), want)
	}
	if b.DischargedTotal() != 0.05 {
		t.Errorf("discharged total = %g", b.DischargedTotal())
	}
}

func TestApplyIdleCostsNothing(t *testing.T) {
	b := newTestBattery(t)
	before := b.Level()
	if err := b.Apply(0, 0); err != nil {
		t.Fatal(err)
	}
	if b.Ops() != 0 || b.Level() != before {
		t.Errorf("idle slot counted as operation: ops=%d level %g → %g", b.Ops(), before, b.Level())
	}
}

func TestApplyRejectsBothDirections(t *testing.T) {
	b := newTestBattery(t)
	if err := b.Apply(0.1, 0.1); !errors.Is(err, ErrBothDirections) {
		t.Fatalf("err = %v, want ErrBothDirections", err)
	}
}

func TestApplyRejectsNegative(t *testing.T) {
	b := newTestBattery(t)
	if err := b.Apply(-0.1, 0); !errors.Is(err, ErrNegative) {
		t.Fatalf("err = %v, want ErrNegative", err)
	}
	if err := b.Apply(0, -0.1); !errors.Is(err, ErrNegative) {
		t.Fatalf("err = %v, want ErrNegative", err)
	}
}

func TestApplyRejectsRateLimit(t *testing.T) {
	b := newTestBattery(t)
	if err := b.Apply(b.Params().MaxChargeMWh+0.01, 0); !errors.Is(err, ErrRateLimit) {
		t.Fatalf("err = %v, want ErrRateLimit", err)
	}
	if err := b.Apply(0, b.Params().MaxDischargeMWh+0.01); !errors.Is(err, ErrRateLimit) {
		t.Fatalf("err = %v, want ErrRateLimit", err)
	}
}

func TestApplyRejectsBounds(t *testing.T) {
	b := newTestBattery(t)
	// Drain to the floor first.
	if err := b.Apply(0, b.MaxDischargeNow()); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(0, 0.05); !errors.Is(err, ErrBounds) {
		t.Fatalf("discharging past Bmin: err = %v, want ErrBounds", err)
	}
	// Fill to the ceiling.
	for b.MaxChargeNow() > 1e-9 {
		if err := b.Apply(b.MaxChargeNow(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Apply(0.05, 0); !errors.Is(err, ErrBounds) {
		t.Fatalf("charging past Bmax: err = %v, want ErrBounds", err)
	}
}

func TestApplyErrorLeavesStateUnchanged(t *testing.T) {
	b := newTestBattery(t)
	level, ops := b.Level(), b.Ops()
	_ = b.Apply(0.1, 0.1) // error
	if b.Level() != level || b.Ops() != ops {
		t.Error("failed Apply mutated state")
	}
}

func TestOpBudget(t *testing.T) {
	p := Sized(2.0, 15, 1)
	p.MaxOps = 2
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(0.01, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(0, 0.01); err != nil {
		t.Fatal(err)
	}
	if !b.OpsExhausted() {
		t.Fatal("budget should be exhausted after 2 ops")
	}
	if err := b.Apply(0.01, 0); !errors.Is(err, ErrOpBudget) {
		t.Fatalf("err = %v, want ErrOpBudget", err)
	}
	if b.MaxChargeNow() != 0 || b.MaxDischargeNow() != 0 {
		t.Error("exhausted battery must report zero head-room")
	}
}

func TestHeadroomAccessors(t *testing.T) {
	b := newTestBattery(t)
	p := b.Params()
	wantCharge := math.Min(p.MaxChargeMWh, (p.CapacityMWh-b.Level())/p.ChargeEff)
	if got := b.MaxChargeNow(); math.Abs(got-wantCharge) > 1e-12 {
		t.Errorf("MaxChargeNow = %g, want %g", got, wantCharge)
	}
	wantDis := math.Min(p.MaxDischargeMWh, (b.Level()-p.MinLevelMWh)/p.DischargeEff)
	if got := b.MaxDischargeNow(); math.Abs(got-wantDis) > 1e-12 {
		t.Errorf("MaxDischargeNow = %g, want %g", got, wantDis)
	}
}

func TestParamsValidate(t *testing.T) {
	mut := func(f func(*Params)) Params {
		p := Sized(2.0, 15, 1)
		f(&p)
		return p
	}
	bad := []Params{
		mut(func(p *Params) { p.CapacityMWh = -1 }),
		mut(func(p *Params) { p.MinLevelMWh = -1 }),
		mut(func(p *Params) { p.MinLevelMWh = p.CapacityMWh + 1 }),
		mut(func(p *Params) { p.MaxChargeMWh = -1 }),
		mut(func(p *Params) { p.MaxDischargeMWh = -1 }),
		mut(func(p *Params) { p.ChargeEff = 0 }),
		mut(func(p *Params) { p.ChargeEff = 1.2 }),
		mut(func(p *Params) { p.DischargeEff = 0.9 }),
		mut(func(p *Params) { p.OpCostUSD = -1 }),
		mut(func(p *Params) { p.MaxOps = -1 }),
		mut(func(p *Params) { p.InitialMWh = p.CapacityMWh + 1 }),
		mut(func(p *Params) { p.InitialMWh = p.MinLevelMWh - 0.01 }),
		mut(func(p *Params) { p.DischargeEff = math.NaN() }),
		mut(func(p *Params) { p.OpCostUSD = math.NaN() }),
		mut(func(p *Params) { p.MaxChargeMWh = math.Inf(1) }),
		Sized(1e308, 15, 1),  // Bmax and b(0) overflow to +Inf
		Sized(2.0, 1e308, 1), // likewise
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

// TestPropertyLevelAlwaysInBounds drives a battery with random admissible
// actions and verifies the paper's availability invariant
// Bmin ≤ b(τ) ≤ Bmax at every step (Theorem 2(2) precondition).
func TestPropertyLevelAlwaysInBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		b, err := New(Sized(2.0, 15, 1))
		if err != nil {
			return false
		}
		p := b.Params()
		for step := 0; step < 200; step++ {
			if r.Intn(2) == 0 {
				if err := b.Apply(r.Float64()*b.MaxChargeNow(), 0); err != nil {
					return false
				}
			} else {
				if err := b.Apply(0, r.Float64()*b.MaxDischargeNow()); err != nil {
					return false
				}
			}
			if b.Level() < p.MinLevelMWh-1e-9 || b.Level() > p.CapacityMWh+1e-9 {
				return false
			}
			if !b.Available() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEnergyConservation checks that the level change equals
// ηc·charged − ηd·discharged over any admissible action sequence.
func TestPropertyEnergyConservation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func() bool {
		b, err := New(Sized(2.0, 30, 1))
		if err != nil {
			return false
		}
		start := b.Level()
		for step := 0; step < 100; step++ {
			if r.Intn(2) == 0 {
				_ = b.Apply(r.Float64()*b.MaxChargeNow(), 0)
			} else {
				_ = b.Apply(0, r.Float64()*b.MaxDischargeNow())
			}
		}
		p := b.Params()
		want := start + p.ChargeEff*b.ChargedTotal() - p.DischargeEff*b.DischargedTotal()
		return math.Abs(b.Level()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
