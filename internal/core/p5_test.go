package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// solveP5Analytic solves one P5 instance by merit order with throwaway
// buffers: the free greedy run of a P5 pair, without the UPS fixed
// charge.
func solveP5Analytic(in p5Input) p5Result {
	var s p5Scratch
	var flows []float64
	if len(in.genSegs) > 0 {
		flows = make([]float64, len(in.genSegs))
	}
	var res p5Result
	s.prepare(&in)
	s.greedy(&in, in.chargeMax, in.dischargeMax, flows, &res)
	return res
}

// frozen returns a copy of the input with the battery disabled.
func (in p5Input) frozen() p5Input {
	out := in
	out.chargeMax = 0
	out.dischargeMax = 0
	return out
}

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

// TestPropertyAnalyticMatchesLP is the central solver cross-check: the
// merit-order solver and the simplex oracle must agree on the objective
// for random instances, and both must be balanced and within caps.
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

// TestP5LPSolveAllocatesNothing pins the LP oracle's steady state: once
// the scratch has solved one instance, re-solving instances of the same
// shape allocates nothing, so BenchmarkAblationP5LP times the simplex
// and not buffer growth.
func TestP5LPSolveAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var in p5Input
	for len(in.genSegs) == 0 {
		in = genP5(r)
	}
	var s p5LPScratch
	var res p5Result
	flows := make([]float64, len(in.genSegs))
	if err := s.solve(&in, flows, &res); err != nil {
		t.Fatal(err)
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { err = s.solve(&in, flows, &res) }); n != 0 {
		t.Errorf("P5 LP solve allocates %v times per call, want 0", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// oracleSolve is the merit-order P5 solve as it stood before the
// battery-free and battery-frozen solves shared one leg sort: fresh legs
// and a sort.Slice order for every instance (for at most twelve legs
// sort.Slice runs the same insertion pass as sortedIdxInto). The
// oracles below hold the production kernel to it bit for bit.
func oracleSolve(in p5Input, flows []float64) p5Result {
	sources := []leg{
		{cost: in.wGrt, cap: in.grtMax},
		{cost: -in.wCharge, cap: in.dischargeMax},
		{cost: in.wEmergency, cap: math.Inf(1)},
	}
	for _, g := range in.genSegs {
		sources = append(sources, leg{cost: g.w, cap: g.cap})
	}
	sinks := []leg{
		{cost: in.wSdt, cap: in.sdtMax},
		{cost: in.wCharge, cap: in.chargeMax},
		{cost: in.wWaste, cap: math.Inf(1)},
	}
	srcOrder, sinkOrder := sortSliceOrder(sources), sortSliceOrder(sinks)
	obj := 0.0
	if net := in.dds - in.base; net > 0 {
		obj += allocate(sources, srcOrder, net)
	} else if net < 0 {
		obj += allocate(sinks, sinkOrder, -net)
	}
	si, ki := 0, 0
	for si < len(srcOrder) && ki < len(sinkOrder) {
		src := &sources[srcOrder[si]]
		snk := &sinks[sinkOrder[ki]]
		if src.cost+snk.cost >= -1e-12 {
			break
		}
		room := min(src.cap-src.flow, snk.cap-snk.flow)
		if room <= 0 {
			if src.cap-src.flow <= 0 {
				si++
			} else {
				ki++
			}
			continue
		}
		src.flow += room
		snk.flow += room
		obj += room * (src.cost + snk.cost)
	}
	res := p5Result{
		grt:       sources[0].flow,
		discharge: sources[1].flow,
		unserved:  sources[2].flow,
		sdt:       sinks[0].flow,
		charge:    sinks[1].flow,
		waste:     sinks[2].flow,
		obj:       obj,
	}
	if len(in.genSegs) > 0 {
		res.genFlows = flows[:len(in.genSegs)]
		for i, src := range sources[3:] {
			res.gen += src.flow
			res.genFlows[i] = src.flow
		}
	}
	netChargeDischarge(&res, in.etaC, in.etaD)
	return res
}

// sortSliceOrder is the leg order the solver used to take from sort.Slice.
func sortSliceOrder(legs []leg) []int {
	idx := make([]int, len(legs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return legs[idx[a]].cost < legs[idx[b]].cost })
	return idx
}

// oracleSolveBest is solveBest as two full solves: the battery-free and
// the battery-frozen instance, each solved from scratch, the cheaper
// kept after V·Cb is added to the side that moves the battery, and the
// frozen side kept on a tie.
func oracleSolveBest(p *Params, in p5Input) (p5Result, float64) {
	n := len(in.genSegs)
	free := oracleSolve(in, make([]float64, n))
	frozen := oracleSolve(in.frozen(), make([]float64, n))
	freeTotal := free.obj
	if free.batteryUsed() {
		freeTotal += p.V * p.Battery.OpCostUSD
	}
	if freeTotal < frozen.obj-1e-12 {
		return free, freeTotal
	}
	return frozen, frozen.obj
}

// parityInput draws a P5 instance from seed with genP5 and bends it
// toward the edge cases of the shared-sort kernel, one per bit of edges:
// zero battery caps, a zero net (base = dds), a zero battery weight,
// segment costs tied with the battery legs, a fleet past the
// insertion-sort cutoff with tie-heavy costs, a grid-to-backlog pair
// cost on the −1e-12 threshold, and a mandatory deficit the grid covers
// but for a 1e-13 MWh sliver, which falls to the battery ahead of a
// barely dearer emergency leg: a flow below batteryUsed's threshold that
// still makes the frozen solve differ, and win the tie. The
// Params carry the V and UPS operation cost the fixed charge is priced
// with; bit 6 zeroes the latter, so a battery-moving optimum ties its
// frozen alternative.
func parityInput(seed int64, edges uint8) (Params, p5Input) {
	r := rand.New(rand.NewSource(seed))
	in := genP5(r)
	p := DefaultParams()
	p.V = 0.05 + 3*r.Float64()
	p.Battery.OpCostUSD = 10 * r.Float64()
	if edges&1 != 0 {
		in.chargeMax, in.dischargeMax = 0, 0
	}
	if edges&2 != 0 {
		in.base = in.dds
	}
	if edges&4 != 0 {
		in.wCharge = 0
	}
	if edges&8 != 0 {
		for i := range in.genSegs {
			in.genSegs[i].w = -in.wCharge // the discharge leg's cost
			if i%2 == 1 {
				in.genSegs[i].w = in.wCharge // the charge leg's
			}
		}
	}
	if edges&16 != 0 {
		for i := 10 + r.Intn(30); i > 0; i-- {
			w := float64(r.Intn(5))*20 - in.wCharge
			in.genSegs = append(in.genSegs, genSeg{cap: 0.3 * r.Float64(), w: w, unit: i})
		}
	}
	if edges&32 != 0 {
		in.wGrt = -1e-12 - in.wSdt
	}
	if edges&64 != 0 {
		p.Battery.OpCostUSD = 0
	}
	if edges&128 != 0 {
		in.wGrt = -in.wCharge - 1
		in.wEmergency = -in.wCharge + 1 // the frozen solve's sliver costs 1e-13 more
		in.dds = in.base + 0.5
		in.grtMax = in.dds - in.base - 1e-13
	}
	return p, in
}

// FuzzSolveBestParity holds Controller.solveBest — one leg sort per
// pair, and the battery-frozen solve only when the free one moved the
// battery — to oracleSolveBest's two full solves: every result field,
// every per-segment flow and the returned total must match bit for bit.
func FuzzSolveBestParity(f *testing.F) {
	r := rand.New(rand.NewSource(43))
	for range 64 {
		f.Add(r.Int63(), uint8(0))
	}
	for edges := range 256 {
		f.Add(r.Int63(), uint8(edges))
	}
	c := &Controller{}
	f.Fuzz(func(t *testing.T, seed int64, edges uint8) {
		p, in := parityInput(seed, edges)
		want, wantTotal := oracleSolveBest(&p, in)
		c.params = p
		var got p5Result
		gotTotal := c.solveBest(&in, &got)
		if err := sameResult(got, gotTotal, want, wantTotal); err != "" {
			t.Fatalf("seed %d edges %#x: %s\nin  %+v\ngot %+v\nwant %+v", seed, edges, err, in, got, want)
		}
	})
}

// sameResult compares two solveBest outcomes bit for bit and names the
// first field that differs ("" when none does).
func sameResult(got p5Result, gotTotal float64, want p5Result, wantTotal float64) string {
	fields := []struct {
		name      string
		got, want float64
	}{
		{"grt", got.grt, want.grt},
		{"sdt", got.sdt, want.sdt},
		{"charge", got.charge, want.charge},
		{"discharge", got.discharge, want.discharge},
		{"waste", got.waste, want.waste},
		{"unserved", got.unserved, want.unserved},
		{"gen", got.gen, want.gen},
		{"obj", got.obj, want.obj},
		{"total", gotTotal, wantTotal},
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if len(got.genFlows) != len(want.genFlows) {
		return fmt.Sprintf("%d segment flows, want %d", len(got.genFlows), len(want.genFlows))
	}
	for i := range got.genFlows {
		if math.Float64bits(got.genFlows[i]) != math.Float64bits(want.genFlows[i]) {
			return fmt.Sprintf("genFlows[%d] = %v, want %v", i, got.genFlows[i], want.genFlows[i])
		}
	}
	return ""
}

// TestSortedIdxMatchesSortSlice pins sortedIdxInto's permutation to
// sort.Slice's on tie-heavy leg sets on both sides of the insertion-sort
// cutoff, so dispatch splits among equal-cost legs stay where the
// historical order put them, and pins that the large-fleet path
// allocates nothing once its index buffer has grown.
func TestSortedIdxMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var idx []int
	for trial := range 20000 {
		legs := make([]leg, 1+trial%72)
		for i := range legs {
			legs[i].cost = float64(r.Intn(4)) // ties galore
			if r.Intn(8) == 0 {
				legs[i].cost = r.NormFloat64()
			}
		}
		idx = sortedIdxInto(idx, legs)
		want := sortSliceOrder(legs)
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("%d legs %v: order %v, sort.Slice %v", len(legs), legs, idx, want)
			}
		}
	}
	legs := make([]leg, 20)
	for i := range legs {
		legs[i].cost = float64(r.Intn(3))
	}
	idx = sortedIdxInto(idx, legs)
	if n := testing.AllocsPerRun(100, func() { idx = sortedIdxInto(idx, legs) }); n != 0 {
		t.Errorf("sorting 20 legs allocates %v times per call, want 0", n)
	}
}
