package generator

import (
	"math"
	"testing"
)

func testParams() Params {
	return Params{
		CapacityMWh:   1.0,
		MinLoadMWh:    0.2,
		FuelUSDPerMWh: 80,
		StartupUSD:    25,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"default", func(p *Params) {}, true},
		{"zero capacity", func(p *Params) { *p = Params{} }, false},
		{"negative capacity", func(p *Params) { p.CapacityMWh = -1 }, false},
		{"min above capacity", func(p *Params) { p.MinLoadMWh = 2 }, false},
		{"negative fuel", func(p *Params) { p.FuelUSDPerMWh = -1 }, false},
		{"concave curve", func(p *Params) { p.FuelQuadUSD = -1 }, false},
		{"negative startup", func(p *Params) { p.StartupUSD = -1 }, false},
		{"negative lag", func(p *Params) { p.StartupLagSlots = -1 }, false},
	}
	for _, tc := range cases {
		p := testParams()
		tc.mutate(&p)
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestFuelCurve(t *testing.T) {
	p := testParams()
	p.FuelQuadUSD = 10
	if got := p.FuelCost(0.5); math.Abs(got-(80*0.5+10*0.25)) > 1e-12 {
		t.Fatalf("FuelCost(0.5) = %g", got)
	}
	if got := p.MarginalAt(0.5); math.Abs(got-(80+2*10*0.5)) > 1e-12 {
		t.Fatalf("MarginalAt(0.5) = %g", got)
	}
	if p.FuelCost(-1) != 0 {
		t.Fatal("negative output must cost nothing")
	}
}

// TestSegments: the piecewise-linear decomposition must cover the band
// exactly, with non-decreasing marginals, and integrate back to the true
// quadratic cost.
func TestSegments(t *testing.T) {
	p := testParams()
	p.FuelQuadUSD = 30

	segs := p.Segments(0.2, 1.0)
	if len(segs) != 2 {
		t.Fatalf("quadratic curve: got %d segments, want 2", len(segs))
	}
	total, cost := 0.0, p.FuelCost(0.2)
	prev := math.Inf(-1)
	for _, s := range segs {
		if s.USDPerMWh < prev {
			t.Fatalf("marginals must be non-decreasing: %v", segs)
		}
		prev = s.USDPerMWh
		total += s.Cap
		cost += s.Cap * s.USDPerMWh
	}
	if math.Abs(total-0.8) > 1e-12 {
		t.Fatalf("segment caps sum to %g, want 0.8", total)
	}
	if math.Abs(cost-p.FuelCost(1.0)) > 1e-9 {
		t.Fatalf("piecewise cost %g != true cost %g at full band", cost, p.FuelCost(1.0))
	}

	// Flat curve: a single exact segment.
	p.FuelQuadUSD = 0
	segs = p.Segments(0, 1.0)
	if len(segs) != 1 || segs[0].USDPerMWh != 80 || math.Abs(segs[0].Cap-1.0) > 1e-12 {
		t.Fatalf("flat curve segments = %v", segs)
	}
	if got := p.Segments(0.5, 0.5); got != nil {
		t.Fatalf("empty band must yield no segments, got %v", got)
	}
}

// TestColdStartNoLag: a lag-free start pays the startup cost once and
// produces in the same slot.
func TestColdStartNoLag(t *testing.T) {
	g, _ := New(testParams())
	if min, max := g.Window(); min != 0.2 || max != 1.0 {
		t.Fatalf("cold window = (%g, %g), want (0.2, 1)", min, max)
	}
	out := g.Dispatch(0.6)
	if out.DeliveredMWh != 0.6 || out.StartupUSD != 25 {
		t.Fatalf("start dispatch = %+v", out)
	}
	if math.Abs(out.FuelUSD-48) > 1e-12 {
		t.Fatalf("fuel = %g, want 48", out.FuelUSD)
	}
	if !g.Running() || g.Starts() != 1 || g.OpSlots() != 1 {
		t.Fatalf("state after start: running=%v starts=%d ops=%d", g.Running(), g.Starts(), g.OpSlots())
	}

	// Staying on must not pay startup again.
	g.Tick()
	out = g.Dispatch(0.8)
	if out.StartupUSD != 0 || out.DeliveredMWh != 0.8 {
		t.Fatalf("second slot = %+v", out)
	}
	if g.Starts() != 1 {
		t.Fatalf("starts = %d, want 1", g.Starts())
	}
}

// TestStartupLag: with lag L, a start at slot τ delivers first energy at
// slot τ+L, and the window stays closed while synchronizing.
func TestStartupLag(t *testing.T) {
	p := testParams()
	p.StartupLagSlots = 2
	g, _ := New(p)

	// Slot 0: the unit cannot deliver anything this slot (the window is
	// closed), but a start may be requested up to the nameplate.
	g.Tick()
	if min, max := g.Window(); min != 0 || max != 0 {
		t.Fatalf("cold window with lag = (%g, %g), want closed", min, max)
	}
	if g.RequestMax() != 1.0 {
		t.Fatalf("cold RequestMax = %g, want capacity", g.RequestMax())
	}
	out := g.Dispatch(0.5)
	if out.DeliveredMWh != 0 || out.StartupUSD != 25 {
		t.Fatalf("slot 0 = %+v", out)
	}
	if !g.Starting() {
		t.Fatal("must be synchronizing after a lagged start")
	}

	// Slot 1: still synchronizing; requests are ignored and free.
	g.Tick()
	if _, max := g.Window(); max != 0 {
		t.Fatalf("window open during synchronization (max=%g)", max)
	}
	if g.RequestMax() != 0 {
		t.Fatal("RequestMax must be 0 during synchronization")
	}
	out = g.Dispatch(0.5)
	if out != (Outcome{}) {
		t.Fatalf("slot 1 = %+v", out)
	}

	// Slot 2 (= τ+L): online, full window, produces.
	g.Tick()
	if !g.Running() {
		t.Fatal("must be running after the lag elapses")
	}
	if min, max := g.Window(); min != 0.2 || max != 1.0 {
		t.Fatalf("post-sync window = (%g, %g)", min, max)
	}
	out = g.Dispatch(0.5)
	if out.DeliveredMWh != 0.5 || out.StartupUSD != 0 {
		t.Fatalf("slot 2 = %+v", out)
	}
	if g.Starts() != 1 || g.StartupCostTotal() != 25 {
		t.Fatalf("starts=%d startupUSD=%g", g.Starts(), g.StartupCostTotal())
	}
}

// TestSubMinRequestWithLagStaysOff: a request below the minimum stable
// load must mean "stay off" for a lagged unit too — not a billed cold
// start that could never hold its load.
func TestSubMinRequestWithLagStaysOff(t *testing.T) {
	p := testParams()
	p.StartupLagSlots = 2
	g, _ := New(p)
	g.Tick()
	out := g.Dispatch(0.1) // below MinLoadMWh = 0.2
	if out != (Outcome{}) || g.Starts() != 0 || g.Starting() {
		t.Fatalf("sub-min request started a lagged unit: %+v starts=%d starting=%v",
			out, g.Starts(), g.Starting())
	}
}

// TestMinLoad: a running unit's window is its whole band
// [MinLoadMWh, CapacityMWh], a request above the nameplate delivers the
// nameplate, and a request below the minimum stable load shuts the unit
// down at once instead of producing.
func TestMinLoad(t *testing.T) {
	g, _ := New(testParams())
	g.Dispatch(0.2)
	g.Tick()
	if min, max := g.Window(); min != 0.2 || max != 1.0 {
		t.Fatalf("running window = (%g, %g), want (0.2, 1)", min, max)
	}
	if out := g.Dispatch(1.5); out.DeliveredMWh != 1.0 {
		t.Fatalf("over-nameplate request delivered %g, want 1", out.DeliveredMWh)
	}
	g.Tick()
	out := g.Dispatch(0.1) // below min stable load
	if out.DeliveredMWh != 0 || g.Running() {
		t.Fatalf("sub-min request must shut down: %+v running=%v", out, g.Running())
	}
}
