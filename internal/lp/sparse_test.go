package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkParity solves p on both the dense tableau and the sparse revised
// simplex and fails the test unless the statuses match exactly and the
// objectives agree to 1e-9 (absolute + relative). It restores the
// problem's sparse flag before returning.
func checkParity(t *testing.T, p *Problem, tag string) {
	t.Helper()
	was := p.sparse
	defer func() { p.sparse = was }()

	var ds, ss Solver
	p.SetSparse(false)
	dsol, derr := ds.Solve(p)
	p.SetSparse(true)
	ssol, serr := ss.Solve(p)

	if (derr == nil) != (serr == nil) {
		t.Fatalf("%s: error parity broken: dense %v, sparse %v", tag, derr, serr)
	}
	if derr != nil {
		return
	}
	if dsol.Status != ssol.Status {
		t.Fatalf("%s: status parity broken: dense %v, sparse %v", tag, dsol.Status, ssol.Status)
	}
	if dsol.Status != Optimal {
		return
	}
	tol := 1e-9 * (1 + math.Abs(dsol.Objective))
	if math.Abs(dsol.Objective-ssol.Objective) > tol {
		t.Fatalf("%s: objective parity broken: dense %.12g, sparse %.12g (diff %g)",
			tag, dsol.Objective, ssol.Objective, dsol.Objective-ssol.Objective)
	}
}

// staircaseLP is a random instance of the shape the horizon LPs have:
// per-slot flow variables coupled only through a battery state chain and
// a cumulative-served chain, plus deadline rows. Coefficients snap to a
// coarse grid so degenerate ties are common, and the generator plants
// fixed variables, occasional infeasible deadlines and (rarely) an
// uncapped negative-cost variable that makes the problem unbounded.
type staircaseLP struct {
	h       int
	bCap    float64
	b0      float64
	etaC    float64
	etaD    float64
	supply  []float64
	sCost   []float64
	uCost   []float64
	demand  float64
	dueSlot int
	fixC    int // index of a slot whose charge var is fixed, -1 none
	fixVal  float64
	unbVar  bool // add an uncapped improving variable (unbounded LP)
}

func q4(x float64) float64 { return math.Round(x*4) / 4 }

func genStaircaseLP(r *rand.Rand) staircaseLP {
	h := 1 + r.Intn(12)
	g := staircaseLP{
		h:       h,
		bCap:    q4(1 + r.Float64()*4),
		etaC:    1,
		etaD:    1,
		supply:  make([]float64, h),
		sCost:   make([]float64, h),
		uCost:   make([]float64, h),
		dueSlot: h - 1,
		fixC:    -1,
	}
	g.b0 = q4(r.Float64() * g.bCap)
	if r.Intn(3) == 0 {
		g.etaC = 0.75
		g.etaD = 1.25
	}
	total := 0.0
	for i := 0; i < h; i++ {
		g.supply[i] = q4(r.Float64() * 3)
		g.sCost[i] = q4(r.Float64() * 4)
		g.uCost[i] = q4(r.Float64()*2 - 0.5)
		total += g.supply[i]
	}
	// Demand mostly satisfiable; sometimes decisively infeasible.
	if r.Intn(5) == 0 {
		g.demand = q4(total + g.b0 + 3 + r.Float64()*5)
	} else {
		g.demand = q4(r.Float64() * 0.6 * (total + g.b0))
	}
	if h > 2 && r.Intn(3) == 0 {
		g.dueSlot = h/2 + r.Intn(h-h/2)
	}
	if r.Intn(4) == 0 {
		g.fixC = r.Intn(h)
		g.fixVal = q4(r.Float64() * 0.5)
	}
	g.unbVar = r.Intn(20) == 0
	return g
}

// build emits the staircase LP: serve u_i and charge c_i draw on supply,
// discharge d_i serves from the battery, B_i and U_i are the state
// chains, and the deadline forces cumulative service by dueSlot.
func (g staircaseLP) build() *Problem {
	p := NewProblem()
	h := g.h
	u := make([]VarID, h)
	c := make([]VarID, h)
	d := make([]VarID, h)
	bs := make([]VarID, h)
	us := make([]VarID, h)
	for i := 0; i < h; i++ {
		u[i] = p.AddVariable("u", 0, g.supply[i], g.uCost[i])
		lo, hi := 0.0, g.supply[i]
		if i == g.fixC {
			lo, hi = g.fixVal, g.fixVal
		}
		c[i] = p.AddVariable("c", lo, hi, g.sCost[i])
		d[i] = p.AddVariable("d", 0, g.bCap, q4(g.sCost[i]/2))
		bs[i] = p.AddVariable("B", 0, g.bCap, 0)
		us[i] = p.AddVariable("U", 0, math.Inf(1), 0)
	}
	for i := 0; i < h; i++ {
		// Battery chain: B_i − B_{i−1} − ηc·c_i + ηd·d_i = [b0 at i=0].
		if i == 0 {
			p.AddConstraint(EQ, g.b0, Term{bs[0], 1}, Term{c[0], -g.etaC}, Term{d[0], g.etaD})
		} else {
			p.AddConstraint(EQ, 0, Term{bs[i], 1}, Term{bs[i-1], -1}, Term{c[i], -g.etaC}, Term{d[i], g.etaD})
		}
		// Served chain: U_i − U_{i−1} − u_i − d_i = 0.
		if i == 0 {
			p.AddConstraint(EQ, 0, Term{us[0], 1}, Term{u[0], -1}, Term{d[0], -1})
		} else {
			p.AddConstraint(EQ, 0, Term{us[i], 1}, Term{us[i-1], -1}, Term{u[i], -1}, Term{d[i], -1})
		}
		// Shared supply: u_i + c_i ≤ s_i.
		p.AddConstraint(LE, g.supply[i], Term{u[i], 1}, Term{c[i], 1})
	}
	p.AddConstraint(GE, g.demand, Term{us[g.dueSlot], 1})
	if g.unbVar {
		v := p.AddVariable("ray", 0, math.Inf(1), -1)
		_ = v
	}
	return p
}

// TestSparseParityStaircase is the core equivalence gate of the revised
// simplex: ≥1000 random staircase LPs (the horizon-LP shape, with
// degenerate ties, fixed variables, infeasible and unbounded cases) must
// agree with the dense tableau on status and objective to 1e-9, both
// as built and in the row formulation (rowForm).
func TestSparseParityStaircase(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for i := 0; i < 1200; i++ {
		g := genStaircaseLP(r)
		p := g.build()
		if i%2 != 0 {
			p = rowForm(p)
		}
		checkParity(t, p, "staircase")
	}
}

// TestSparseParityBoxLPs runs the parity gate over the generic random
// box LPs of the existing property harness, which exercise free
// variables, flipped bounds, equality-heavy rows and empty problems the
// staircase shape never produces.
func TestSparseParityBoxLPs(t *testing.T) {
	r := rand.New(rand.NewSource(4321))
	for i := 0; i < 1000; i++ {
		g := genBoxLP(r)
		p, _ := g.build()
		if i%2 != 0 {
			p = rowForm(p)
		}
		checkParity(t, p, "box")
	}
}

// TestSparseSolutionsAreFeasible: the sparse path's reported optimum
// must satisfy the original constraints and bounds, not just match the
// dense objective.
func TestSparseSolutionsAreFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 400; i++ {
		g := genBoxLP(r)
		p, _ := g.build()
		if i%2 != 0 {
			p = rowForm(p)
		}
		p.SetSparse(true)
		var s Solver
		sol, err := s.Solve(p)
		if err != nil || sol.Status != Optimal {
			continue
		}
		if x := sol.Values(); !g.feasible(x, 1e-6) {
			t.Fatalf("sparse optimum %v infeasible for %+v", x, g)
		}
	}
}

// TestSparseDeterminism: the sparse solver is a pure function of the
// problem — two solves of identical instances must take identical pivot
// sequences and produce bit-identical objectives.
func TestSparseDeterminism(t *testing.T) {
	r1 := rand.New(rand.NewSource(555))
	r2 := rand.New(rand.NewSource(555))
	var s1, s2 Solver
	for i := 0; i < 100; i++ {
		p1 := genStaircaseLP(r1).build()
		p2 := genStaircaseLP(r2).build()
		p1.SetSparse(true)
		p2.SetSparse(true)
		sol1, err1 := s1.Solve(p1)
		sol2, err2 := s2.Solve(p2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("case %d: error divergence %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if sol1.Status != sol2.Status || sol1.Iterations != sol2.Iterations || sol1.Objective != sol2.Objective {
			t.Fatalf("case %d: nondeterministic solve: %v/%d/%v vs %v/%d/%v", i,
				sol1.Status, sol1.Iterations, sol1.Objective,
				sol2.Status, sol2.Iterations, sol2.Objective)
		}
	}
}

// TestSparseRefactorizationPath solves a staircase instance long enough
// that the eta file must be rebuilt at least once mid-solve (pivot count
// beyond maxEtas), proving refactorization preserves the trajectory.
func TestSparseRefactorizationPath(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	hit := false
	for i := 0; i < 40 && !hit; i++ {
		g := genStaircaseLP(r)
		g.h = 40 + r.Intn(20)
		g.supply = make([]float64, g.h)
		g.sCost = make([]float64, g.h)
		g.uCost = make([]float64, g.h)
		total := 0.0
		for j := 0; j < g.h; j++ {
			g.supply[j] = q4(r.Float64() * 3)
			g.sCost[j] = q4(r.Float64() * 4)
			g.uCost[j] = q4(r.Float64()*2 - 0.5)
			total += g.supply[j]
		}
		g.dueSlot = g.h - 1
		g.fixC = -1
		g.unbVar = false
		g.demand = q4(0.8 * (total + g.b0))
		p := g.build()
		p.SetSparse(true)
		var s Solver
		sol, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status == Optimal && sol.Iterations > maxEtas {
			hit = true
		}
		checkParity(t, p, "refactor")
	}
	if !hit {
		t.Fatal("no instance exceeded maxEtas pivots; enlarge the generator")
	}
}

// FuzzSparseSolveParity decodes an arbitrary byte string into a small LP
// and asserts dense/sparse parity on it. The decoder snaps every number
// to a coarse grid, so the fuzzer explores tie-heavy, rank-deficient and
// infeasible corners rather than floating-point noise.
func FuzzSparseSolveParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x80, 0x20, 0x11, 0x99, 0x42, 0x42, 0x42, 0x42, 0x17, 0x03})
	f.Add([]byte{9, 200, 13, 77, 250, 3, 3, 3, 128, 128, 128, 0, 0, 0, 255, 255})
	// Hyper-sparse threshold crossings: 5 variables and 6 dense rows keep
	// FTRAN/BTRAN patterns hovering around the m/4 density threshold, so
	// the solve flips between the sparse kernels and their dense
	// fallbacks mid-trajectory.
	f.Add([]byte{
		4, 6, 0, // nv=5, nc=6, bounded
		0x90, 0x30, 0x70, 4, 0xa0, 0x40, 0x60, 4, 0x88, 0x50, 0x90, 4, 0x70, 0x20, 0xb0, 4, 0x98, 0x60, 0x50, 4,
		0x40, 0xc0, 0x40, 0xc0, 0x40, 0, 0x90, // dense LE row
		0xc0, 0x40, 0xc0, 0x40, 0xc0, 1, 0x70, // dense GE row
		0x60, 0xa0, 0x60, 0xa0, 0x60, 2, 0x88, // dense EQ row
		0x40, 0x40, 0x40, 0x40, 0x40, 0, 0xa0,
		0xc0, 0xc0, 0xc0, 0xc0, 0xc0, 1, 0x60,
		0xa0, 0x60, 0xa0, 0x60, 0xa0, 2, 0x80,
	})
	// The sparse complement: identical shape, but most coefficients snap
	// to zero (byte 0x80), so row patterns stay single-entry and the
	// solve should hold the hyper-sparse path throughout.
	f.Add([]byte{
		4, 6, 0,
		0x90, 0x30, 0x70, 4, 0xa0, 0x40, 0x60, 4, 0x88, 0x50, 0x90, 4, 0x70, 0x20, 0xb0, 4, 0x98, 0x60, 0x50, 4,
		0x40, 0x80, 0x80, 0x80, 0x80, 0, 0x90,
		0x80, 0xc0, 0x80, 0x80, 0x80, 1, 0x70,
		0x80, 0x80, 0x60, 0x80, 0x80, 2, 0x88,
		0x80, 0x80, 0x80, 0x40, 0x80, 0, 0xa0,
		0x80, 0x80, 0x80, 0x80, 0xc0, 1, 0x60,
		0x40, 0x80, 0x80, 0x80, 0x60, 2, 0x80,
	})
	// Coupled routing block (internal/baseline SolveGeoHorizon shape):
	// two sites' (out, in) pairs plus a battery-style level variable.
	// Penalty costs sit on the "in" columns only, each site carries a
	// balance row and an in-minus-out cap row, and an EQ coupling row
	// ties the sites together with +1/-1 entries — the row that makes
	// the otherwise block-diagonal staircase non-separable.
	f.Add([]byte{
		4, 6, 0, // nv=5, nc=6, bounded
		0x80, 0xa0, 0x80, 4, // out1 in [0,2], cost 0
		0x80, 0xc0, 0x90, 4, // in1  in [0,4], cost 1 (import penalty)
		0x80, 0xa0, 0x80, 4, // out2 in [0,2], cost 0
		0x80, 0xc0, 0x90, 4, // in2  in [0,4], cost 1
		0x80, 0xb0, 0x88, 4, // bl   in [0,3], cost 0.5
		0xa0, 0x60, 0x80, 0x80, 0xa0, 0, 0x90, // site-1 balance: out1-in1+bl <= 2
		0x80, 0x80, 0xa0, 0x60, 0x80, 1, 0x78, // site-2 balance: out2-in2 >= -1
		0xa0, 0x60, 0xa0, 0x60, 0x80, 2, 0x80, // coupling: out1-in1+out2-in2 = 0
		0x60, 0xa0, 0x80, 0x80, 0x80, 0, 0x88, // site-1 cap: in1-out1 <= 1
		0x80, 0x80, 0x60, 0xa0, 0x80, 0, 0x88, // site-2 cap: in2-out2 <= 1
		0x60, 0x80, 0x60, 0x80, 0xa0, 2, 0x80, // accumulator: bl-out1-out2 = 0
	})
	// Staircase battery chain with a routing coupling row: bidiagonal
	// EQ transitions bl[i+1]-bl[i] (the whole-horizon LP's dominant row
	// pattern) alongside the out/in pair, its EQ coupling row and an
	// in-minus-out cap — a one-slot slice of the coupled geo staircase.
	f.Add([]byte{
		4, 5, 0, // nv=5, nc=5, bounded
		0x80, 0xc0, 0x80, 4, // bl0 in [0,4], cost 0
		0x80, 0xc0, 0x80, 4, // bl1 in [0,4], cost 0
		0x80, 0xc0, 0x88, 4, // bl2 in [0,4], cost 0.5
		0x80, 0xa0, 0x80, 4, // out in [0,2], cost 0
		0x80, 0xc0, 0x90, 4, // in  in [0,4], cost 1
		0x60, 0xa0, 0x80, 0x60, 0xa0, 2, 0x88, // transition: bl1-bl0-out+in = 1
		0x80, 0x60, 0xa0, 0x80, 0x80, 2, 0x78, // transition: bl2-bl1 = -1
		0x80, 0x80, 0x80, 0xa0, 0x60, 2, 0x80, // coupling: out-in = 0
		0x80, 0x80, 0x80, 0x60, 0xa0, 0, 0x88, // cap: in-out <= 1
		0x80, 0x80, 0xa0, 0xa0, 0x80, 1, 0x88, // deadline: bl2+out >= 1
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeFuzzLP(data)
		if !ok {
			return
		}
		checkParity(t, p, "fuzz")
	})
}

// decodeFuzzLP turns a byte stream into a bounded LP: a handful of
// variables on a coarse bound grid, then constraint rows until the
// stream runs dry, restated by rowForm when the third byte is odd.
// Exhausted streams read zeros.
func decodeFuzzLP(data []byte) (*Problem, bool) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	grid := func(b byte, scale float64) float64 {
		return (float64(int(b)) - 128) / 16 * scale
	}
	nv := 1 + int(next())%5
	nc := int(next()) % 7
	p := NewProblem()
	rowBounds := next()%2 != 0
	ids := make([]VarID, nv)
	for i := 0; i < nv; i++ {
		lo := grid(next(), 1)
		span := math.Abs(grid(next(), 1))
		cost := grid(next(), 1)
		switch next() % 8 {
		case 0: // free variable
			ids[i] = p.AddVariable("", math.Inf(-1), math.Inf(1), cost)
		case 1: // upper-bounded only
			ids[i] = p.AddVariable("", math.Inf(-1), lo+span, cost)
		case 2: // unbounded above
			ids[i] = p.AddVariable("", lo, math.Inf(1), cost)
		case 3: // fixed
			ids[i] = p.AddVariable("", lo, lo, cost)
		default:
			ids[i] = p.AddVariable("", lo, lo+span, cost)
		}
	}
	terms := make([]Term, 0, nv)
	for c := 0; c < nc; c++ {
		terms = terms[:0]
		for i := 0; i < nv; i++ {
			if coef := grid(next(), 0.5); coef != 0 {
				terms = append(terms, Term{ids[i], coef})
			}
		}
		rel := []Relation{LE, GE, EQ}[next()%3]
		p.AddConstraint(rel, grid(next(), 2), terms...)
	}
	if rowBounds {
		p = rowForm(p)
	}
	return p, true
}
