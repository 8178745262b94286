package market

import (
	"errors"
	"math"
	"testing"
)

func newTestAccount(t *testing.T) *Account {
	t.Helper()
	a, err := NewAccount(Params{PgridMWh: 2.0, PmaxUSD: 150})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAccountValidates(t *testing.T) {
	if _, err := NewAccount(Params{PgridMWh: 0, PmaxUSD: 150}); err == nil {
		t.Error("zero Pgrid accepted")
	}
	if _, err := NewAccount(Params{PgridMWh: 2, PmaxUSD: 0}); err == nil {
		t.Error("zero Pmax accepted")
	}
}

func TestBeginCoarseAndSettle(t *testing.T) {
	a := newTestAccount(t)
	if err := a.BeginCoarse(24, 40, 24); err != nil {
		t.Fatal(err)
	}
	if got := a.LongTermDue(); got != 1.0 {
		t.Fatalf("LongTermDue = %g, want 1", got)
	}
	if got := a.RealTimeHeadroom(); got != 1.0 {
		t.Fatalf("RealTimeHeadroom = %g, want 1", got)
	}
	cost, err := a.SettleLongTermSlot()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 40 {
		t.Fatalf("slot cost = %g, want 40", cost)
	}
	if a.LongTermEnergy() != 1 || a.LongTermCost() != 40 {
		t.Errorf("totals: energy=%g cost=%g", a.LongTermEnergy(), a.LongTermCost())
	}
}

func TestBeforeFirstCommitment(t *testing.T) {
	a := newTestAccount(t)
	if a.LongTermDue() != 0 {
		t.Error("LongTermDue before commitment must be 0")
	}
	if a.RealTimeHeadroom() != 2.0 {
		t.Error("headroom before commitment must be full Pgrid")
	}
	if _, err := a.SettleLongTermSlot(); !errors.Is(err, ErrNoPeriod) {
		t.Errorf("err = %v, want ErrNoPeriod", err)
	}
}

func TestBeginCoarseRejects(t *testing.T) {
	a := newTestAccount(t)
	if err := a.BeginCoarse(10, 40, 0); err == nil {
		t.Error("zero slots accepted")
	}
	if err := a.BeginCoarse(-1, 40, 24); !errors.Is(err, ErrNegative) {
		t.Errorf("negative energy: err = %v", err)
	}
	if err := a.BeginCoarse(10, -1, 24); !errors.Is(err, ErrPriceCap) {
		t.Errorf("negative price: err = %v", err)
	}
	if err := a.BeginCoarse(10, 200, 24); !errors.Is(err, ErrPriceCap) {
		t.Errorf("price above Pmax: err = %v", err)
	}
	if err := a.BeginCoarse(100, 40, 24); !errors.Is(err, ErrGridCap) {
		t.Errorf("gbef/T above Pgrid: err = %v", err)
	}
}

func TestBuyRealTime(t *testing.T) {
	a := newTestAccount(t)
	if err := a.BeginCoarse(24, 40, 24); err != nil {
		t.Fatal(err)
	}
	cost, err := a.BuyRealTime(0.5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 30 {
		t.Fatalf("cost = %g, want 30", cost)
	}
	if a.RealTimeEnergy() != 0.5 || a.RealTimeCost() != 30 {
		t.Errorf("totals: energy=%g cost=%g", a.RealTimeEnergy(), a.RealTimeCost())
	}
	if a.LongTermCost() != 0 {
		t.Errorf("LongTermCost = %g, want 0 (no LT settled yet)", a.LongTermCost())
	}
}

func TestBuyRealTimeRejects(t *testing.T) {
	a := newTestAccount(t)
	if err := a.BeginCoarse(24, 40, 24); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BuyRealTime(-0.1, 60); !errors.Is(err, ErrNegative) {
		t.Errorf("negative amount: err = %v", err)
	}
	if _, err := a.BuyRealTime(0.1, 151); !errors.Is(err, ErrPriceCap) {
		t.Errorf("price above Pmax: err = %v", err)
	}
	if _, err := a.BuyRealTime(1.5, 60); !errors.Is(err, ErrGridCap) {
		t.Errorf("beyond headroom: err = %v", err)
	}
}

func TestHeadroomNeverNegative(t *testing.T) {
	a := newTestAccount(t)
	// Commit exactly Pgrid per slot.
	if err := a.BeginCoarse(2.0*24, 40, 24); err != nil {
		t.Fatal(err)
	}
	if got := a.RealTimeHeadroom(); got != 0 {
		t.Fatalf("headroom = %g, want 0", got)
	}
	if _, err := a.BuyRealTime(0.01, 60); !errors.Is(err, ErrGridCap) {
		t.Errorf("purchase with zero headroom: err = %v", err)
	}
}

func TestMultipleCoarseIntervals(t *testing.T) {
	a := newTestAccount(t)
	totalLT := 0.0
	for k := 0; k < 3; k++ {
		gbef := float64(k+1) * 3 // per-slot 0.5, 1.0, 1.5 — all under Pgrid
		if err := a.BeginCoarse(gbef, 40, 6); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 6; s++ {
			if _, err := a.SettleLongTermSlot(); err != nil {
				t.Fatal(err)
			}
		}
		totalLT += gbef
	}
	if math.Abs(a.LongTermEnergy()-totalLT) > 1e-9 {
		t.Fatalf("LongTermEnergy = %g, want %g", a.LongTermEnergy(), totalLT)
	}
	if math.Abs(a.LongTermCost()-totalLT*40) > 1e-9 {
		t.Fatalf("LongTermCost = %g, want %g", a.LongTermCost(), totalLT*40)
	}
}

func TestParamsAccessor(t *testing.T) {
	a := newTestAccount(t)
	if a.Params().PgridMWh != 2.0 || a.Params().PmaxUSD != 150 {
		t.Errorf("Params = %+v", a.Params())
	}
}
