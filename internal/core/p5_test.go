package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// baseInput is a neutral P5 instance used as a mutation base in unit tests.
func baseInput() p5Input {
	return p5Input{
		dds:          1.0,
		base:         0.8,
		grtMax:       1.0,
		sdtMax:       0.5,
		chargeMax:    0.5,
		dischargeMax: 0.4,
		wGrt:         35, // V·prt − (Q+Y)
		wSdt:         -5, // −(Q+Y)
		wCharge:      -3, // Q+X+Y (battery below target)
		wWaste:       6,  // V·wW + (Q+Y)
		wEmergency:   1e6,
	}
}

func checkBalance(t *testing.T, in p5Input, r p5Result) {
	t.Helper()
	lhs := in.base + r.grt + r.discharge + r.gen + r.unserved
	rhs := in.dds + r.sdt + r.charge + r.waste
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("balance violated: %g != %g (in=%+v res=%+v)", lhs, rhs, in, r)
	}
	genCap := 0.0
	for _, s := range in.genSegs {
		genCap += s.cap
	}
	caps := []struct {
		name string
		v    float64
		cap  float64
	}{
		{"grt", r.grt, in.grtMax},
		{"sdt", r.sdt, in.sdtMax},
		{"charge", r.charge, in.chargeMax},
		{"discharge", r.discharge, in.dischargeMax},
		{"gen", r.gen, genCap},
	}
	for _, c := range caps {
		if c.v < -1e-12 || c.v > c.cap+1e-9 {
			t.Fatalf("%s = %g outside [0, %g]", c.name, c.v, c.cap)
		}
	}
	if r.waste < -1e-12 || r.unserved < -1e-12 {
		t.Fatalf("negative waste/unserved: %+v", r)
	}
	if r.charge > 1e-9 && r.discharge > 1e-9 {
		t.Fatalf("charge and discharge both positive: %+v", r)
	}
}

func TestAnalyticDeficitUsesCheapestSource(t *testing.T) {
	in := baseInput()
	// Deficit 0.2; battery source cost −wCharge = 3 beats grid 35.
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if res.discharge < 0.2-1e-9 {
		t.Errorf("discharge = %g, want >= 0.2 (cheapest deficit source)", res.discharge)
	}
	if res.unserved > 1e-12 {
		t.Errorf("unserved = %g, want 0", res.unserved)
	}
}

func TestAnalyticDeficitFallsBackToGrid(t *testing.T) {
	in := baseInput()
	in.dischargeMax = 0.05 // battery nearly empty
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if res.discharge < 0.05-1e-9 {
		t.Errorf("discharge = %g, want the full 0.05", res.discharge)
	}
	if res.grt < 0.15-1e-9 {
		t.Errorf("grt = %g, want >= 0.15 to cover the rest", res.grt)
	}
}

func TestAnalyticEmergencyWhenCapsExhausted(t *testing.T) {
	in := baseInput()
	in.grtMax = 0.0
	in.dischargeMax = 0.0
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if math.Abs(res.unserved-0.2) > 1e-9 {
		t.Errorf("unserved = %g, want 0.2", res.unserved)
	}
}

func TestAnalyticExcessServesBacklogFirst(t *testing.T) {
	in := baseInput()
	in.base = 2.0 // excess 1.0
	// Sink costs: serve −5, charge −3, waste 6 → serve 0.5, charge 0.5.
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if math.Abs(res.sdt-0.5) > 1e-9 {
		t.Errorf("sdt = %g, want 0.5 (cap)", res.sdt)
	}
	if math.Abs(res.charge-0.5) > 1e-9 {
		t.Errorf("charge = %g, want 0.5", res.charge)
	}
	if res.waste > 1e-9 {
		t.Errorf("waste = %g, want 0", res.waste)
	}
}

func TestAnalyticExcessWastesWhenSinksFull(t *testing.T) {
	in := baseInput()
	in.base = 3.0 // excess 2.0 > sdtMax + chargeMax
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if math.Abs(res.waste-1.0) > 1e-9 {
		t.Errorf("waste = %g, want 1.0", res.waste)
	}
}

func TestAnalyticBuyToServeWhenPriceLow(t *testing.T) {
	in := baseInput()
	in.wGrt = 2 // V·prt − (Q+Y) = 2, serve weight −5: pair −3 < 0 → buy to serve
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	// Deficit 0.2 plus profitable buy-to-serve of 0.5 (sdt cap).
	if res.sdt < 0.5-1e-9 {
		t.Errorf("sdt = %g, want full cap 0.5", res.sdt)
	}
}

func TestAnalyticNoBuyToWaste(t *testing.T) {
	// Even with a low price, buying to waste must never be profitable
	// because the waste weight carries the +(Q+Y) correction (doc.go).
	in := baseInput()
	in.wGrt = 0.5
	in.sdtMax = 0    // nothing to serve
	in.chargeMax = 0 // battery full
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if res.grt > 0.2+1e-9 { // only the mandatory deficit
		t.Errorf("grt = %g, want exactly the 0.2 deficit", res.grt)
	}
	if res.waste > 1e-9 {
		t.Errorf("waste = %g, want 0", res.waste)
	}
}

func TestAnalyticChargeFromGridWhenVeryCheap(t *testing.T) {
	in := baseInput()
	in.wGrt = 2     // cheap power
	in.wCharge = -4 // battery pressure (low level): pair cost 2−4 = −2 < 0
	in.grtMax = 2   // enough headroom for deficit + serve + charge
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if res.charge < in.chargeMax-1e-9 {
		t.Errorf("charge = %g, want full cap %g (grid-to-battery arbitrage)", res.charge, in.chargeMax)
	}
}

func TestAnalyticIdleWhenBalanced(t *testing.T) {
	in := baseInput()
	in.base = in.dds
	in.wGrt = 40    // expensive
	in.wSdt = -1    // weak queue pressure: no profitable pair (40−1 > 0)
	in.wCharge = -3 // battery below target: discharge costs 3, charge "earns"
	// only via free surplus, of which there is none here
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if res.grt > 1e-9 || res.sdt > 1e-9 || res.charge > 1e-9 || res.discharge > 1e-9 {
		t.Errorf("expected idle slot, got %+v", res)
	}
	if math.Abs(res.obj) > 1e-12 {
		t.Errorf("idle objective = %g, want 0", res.obj)
	}
}

func TestFrozenDisablesBattery(t *testing.T) {
	in := baseInput().frozen()
	if in.chargeMax != 0 || in.dischargeMax != 0 {
		t.Fatalf("frozen() kept battery caps: %+v", in)
	}
	res := solveP5Analytic(in)
	checkBalance(t, in, res)
	if res.batteryUsed() {
		t.Errorf("frozen solve used the battery: %+v", res)
	}
}

func TestLPMatchesAnalyticOnUnitCases(t *testing.T) {
	cases := []p5Input{
		baseInput(),
		func() p5Input { in := baseInput(); in.base = 2.0; return in }(),
		func() p5Input { in := baseInput(); in.wGrt = 2; return in }(),
		func() p5Input { in := baseInput(); in.grtMax, in.dischargeMax = 0, 0; return in }(),
	}
	for i, in := range cases {
		a := solveP5Analytic(in)
		l, err := solveP5LP(in)
		if err != nil {
			t.Fatalf("case %d: LP error: %v", i, err)
		}
		if math.Abs(a.obj-l.obj) > 1e-6*math.Max(1, math.Abs(a.obj)) {
			t.Errorf("case %d: analytic obj %g != LP obj %g", i, a.obj, l.obj)
		}
	}
}

// genP5 draws a random admissible P5 instance.
func genP5(r *rand.Rand) p5Input {
	qy := r.Float64() * 10
	x := -10 + r.Float64()*12
	in := p5Input{
		dds:          r.Float64() * 2,
		base:         r.Float64() * 3,
		grtMax:       r.Float64() * 2,
		sdtMax:       r.Float64() * 1.2,
		chargeMax:    r.Float64() * 0.6,
		dischargeMax: r.Float64() * 0.6,
		wGrt:         r.Float64()*150*2 - qy, // V ∈ (0,2] lumped into the price draw
		wSdt:         -qy,
		wCharge:      qy + x,
		wWaste:       1 + qy,
		wEmergency:   1e6,
	}
	// Half the instances carry an on-site generation arm: one or two
	// units, each with one or two fuel-curve segments. Marginals are
	// non-decreasing within a unit (convexity) but arbitrary across
	// units, the fleet case the merit-order solver must handle.
	if r.Intn(2) == 0 {
		for unit := r.Intn(2); unit >= 0; unit-- {
			marginal := r.Float64()*150 - qy
			for n := 1 + r.Intn(2); n > 0; n-- {
				in.genSegs = append(in.genSegs, genSeg{cap: r.Float64() * 0.8, w: marginal, unit: unit})
				marginal += r.Float64() * 40
			}
		}
	}
	return in
}

// TestPropertyAnalyticMatchesLP is the central solver cross-check: both P5
// paths must agree on the objective for random instances, and both must be
// balanced and within caps.
func TestPropertyAnalyticMatchesLP(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func() bool {
		in := genP5(r)
		a := solveP5Analytic(in)
		l, err := solveP5LP(in)
		if err != nil {
			t.Logf("LP error: %v (in=%+v)", err, in)
			return false
		}
		checkBalance(t, in, a)
		checkBalance(t, in, l)
		if math.Abs(a.obj-l.obj) > 1e-6*math.Max(1, math.Abs(a.obj)) {
			t.Logf("objective mismatch: analytic %.9g vs LP %.9g (in=%+v)", a.obj, l.obj, in)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAnalyticObjectiveBeatsRandomFeasible: no random feasible
// decision may beat the analytic optimum.
func TestPropertyAnalyticObjectiveBeatsRandomFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	f := func() bool {
		in := genP5(r)
		best := solveP5Analytic(in)
		for trial := 0; trial < 100; trial++ {
			grt := r.Float64() * in.grtMax
			sdt := r.Float64() * in.sdtMax
			var charge, discharge float64
			if r.Intn(2) == 0 {
				charge = r.Float64() * in.chargeMax
			} else {
				discharge = r.Float64() * in.dischargeMax
			}
			net := in.base + grt + discharge - in.dds - sdt - charge
			waste, unserved := 0.0, 0.0
			if net >= 0 {
				waste = net
			} else {
				unserved = -net
			}
			obj := in.wGrt*grt + in.wSdt*sdt + in.wCharge*(charge-discharge) +
				in.wWaste*waste + in.wEmergency*unserved
			if obj < best.obj-1e-6*math.Max(1, math.Abs(best.obj)) {
				t.Logf("random decision beats optimum: %g < %g", obj, best.obj)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestP5LPSolveAllocatesNothing pins the UseLP path's steady state: once
// the scratch has solved one instance, re-solving instances of the same
// shape allocates nothing. Its per-run allocations are the solver's
// one-time buffer growth, not a per-slot cost.
func TestP5LPSolveAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var in p5Input
	for len(in.genSegs) == 0 {
		in = genP5(r)
	}
	var s p5LPScratch
	flows := make([]float64, len(in.genSegs))
	if _, err := s.solve(in, flows); err != nil {
		t.Fatal(err)
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = s.solve(in, flows) }); n != 0 {
		t.Errorf("P5 LP solve allocates %v times per call, want 0", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}
