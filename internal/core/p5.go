package core

import (
	"math"
	"slices"
)

// p5Input is one fine-slot instance of subproblem P5 after the queue
// weights have been computed. All amounts are MWh, weights are objective
// units per MWh.
type p5Input struct {
	dds  float64 // delay-sensitive demand that must be covered
	base float64 // already-committed supply: gbef(t)/T + r(τ) (+ any
	// committed generator minimum load, see controller.go)

	grtMax       float64 // real-time purchase cap (headroom ∧ Smax)
	sdtMax       float64 // service cap (backlog ∧ Sdtmax)
	chargeMax    float64 // admissible brc this slot
	dischargeMax float64 // admissible bdc this slot

	etaC float64 // battery charge efficiency ηc (for overlap netting)
	etaD float64 // battery discharge efficiency ηd

	wGrt       float64 // V·prt − (Q+Y)
	wSdt       float64 // −(Q+Y)
	wCharge    float64 // +(Q+X+Y); discharge weight is its negation
	wWaste     float64 // V·wW + (Q+Y)  (see doc.go: waste serves no queue)
	wEmergency float64 // V·EmergencyCost, dwarfs every other weight

	// genSegs are optional extra source legs for the dispatchable
	// on-site generator above its committed minimum load: the convex
	// fuel curve decomposed into pieces with non-decreasing weights
	// V·marginal − (Q+Y). Empty when no generator dispatch is being
	// considered, in which case the solve is identical to the
	// generator-free subproblem.
	genSegs []genSeg
}

// genSeg is one piecewise-linear slice of a generation unit's dispatch
// band. With a fleet, segments of several units coexist in one P5
// instance; unit records which one a segment belongs to so the solved
// flows can be routed back to their units.
type genSeg struct {
	cap  float64 // MWh available at this marginal price
	w    float64 // V·marginal − (Q+Y)
	unit int     // owning fleet unit (0 for the single-unit arm)
}

// p5Result is the solved slot decision with its drift objective value.
type p5Result struct {
	grt, sdt, charge, discharge, waste, unserved float64
	gen                                          float64 // total generation above the committed minimum
	genFlows                                     []float64
	// genFlows is the per-segment generation, aligned with the input's
	// genSegs order (nil when the instance has no generator segments).
	obj float64
}

// batteryUsed reports whether the battery moves in this result.
func (r *p5Result) batteryUsed() bool {
	return r.charge > 1e-12 || r.discharge > 1e-12
}

// leg is one source or sink of the single-node balance in P5.
type leg struct {
	cost float64
	cap  float64
	flow float64
}

// The battery legs' positions in p5Scratch.srcs and p5Scratch.snks.
const (
	dischargeLeg = 1
	chargeLeg    = 1
)

// p5Scratch holds the merit-order solver's working buffers. A Controller
// owns one and reuses it every fine slot, so steady-state solves allocate
// nothing; the zero value is ready to use (buffers grow on first solve).
type p5Scratch struct {
	srcs, snks []leg
	srcIdx     []int
	snkIdx     []int
}

// prepare and greedy solve one P5 instance exactly by merit order. P5
// is a single balance node with per-leg linear costs:
//
//	sources: grt (wGrt), bdc (−wCharge), emergency (wEmergency),
//	         plus one leg per generator fuel-curve segment (genSegs)
//	sinks:   sdt (wSdt), brc (wCharge), waste (wWaste)
//	balance: base + Σsources = dds + Σsinks
//
// The mandatory net (dds − base) is routed through the cheapest legs, then
// every (source, sink) pair with negative combined cost is saturated in
// ascending cost order. Because each leg's marginal cost is constant, the
// greedy exchange argument makes this optimal (the generator's convex fuel
// curve yields non-decreasing segment costs, so merit order fills its
// segments in curve order); TestPropertyAnalyticMatchesLP cross-checks it
// against a simplex model of P5 kept in the tests.
//
// prepare builds in's source and sink legs and sorts each side by cost.
// The order depends on the costs alone, so one prepare serves greedy runs
// with any battery capacities: the battery-free and battery-frozen
// solves of a P5 pair share it.
func (s *p5Scratch) prepare(in *p5Input) {
	sources := append(s.srcs[:0],
		leg{cost: in.wGrt, cap: in.grtMax},
		leg{cost: -in.wCharge, cap: in.dischargeMax},
		leg{cost: in.wEmergency, cap: math.Inf(1)},
	)
	for _, g := range in.genSegs {
		sources = append(sources, leg{cost: g.w, cap: g.cap})
	}
	sinks := append(s.snks[:0],
		leg{cost: in.wSdt, cap: in.sdtMax},
		leg{cost: in.wCharge, cap: in.chargeMax},
		leg{cost: in.wWaste, cap: math.Inf(1)},
	)
	s.srcs, s.snks = sources, sinks
	s.srcIdx = sortedIdxInto(s.srcIdx, sources)
	s.snkIdx = sortedIdxInto(s.snkIdx, sinks)
}

// greedy runs the merit-order solve on the prepared legs with the
// battery's charge and discharge capacities set to chargeMax and
// dischargeMax, and writes the result into res. flows receives the
// per-segment generation and becomes the result's genFlows (it must have
// len(in.genSegs); nil is fine without segments) — caller-owned so
// results can outlive the scratch's next solve.
func (s *p5Scratch) greedy(in *p5Input, chargeMax, dischargeMax float64, flows []float64, res *p5Result) {
	sources, sinks := s.srcs, s.snks
	srcOrder, sinkOrder := s.srcIdx, s.snkIdx
	for i := range sources {
		sources[i].flow = 0
	}
	for i := range sinks {
		sinks[i].flow = 0
	}
	sources[dischargeLeg].cap = dischargeMax
	sinks[chargeLeg].cap = chargeMax

	obj := 0.0
	// Mandatory flow: cover the net deficit from the cheapest sources, or
	// absorb the net excess into the cheapest sinks.
	if net := in.dds - in.base; net > 0 {
		obj += allocate(sources, srcOrder, net)
	} else if net < 0 {
		obj += allocate(sinks, sinkOrder, -net)
	}

	// Profitable pairs: cheapest source with cheapest sink while their
	// combined marginal cost is negative.
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

	// Field by field: a composite literal would be built in a temporary
	// and block-copied into *res.
	res.grt = sources[0].flow
	res.discharge = sources[dischargeLeg].flow
	res.unserved = sources[2].flow
	res.sdt = sinks[0].flow
	res.charge = sinks[chargeLeg].flow
	res.waste = sinks[2].flow
	res.obj = obj
	res.gen, res.genFlows = 0, nil
	if len(in.genSegs) > 0 {
		res.genFlows = flows[:len(in.genSegs)]
		for i, src := range sources[3:] {
			res.gen += src.flow
			res.genFlows[i] = src.flow
		}
	}
	netChargeDischarge(res, in.etaC, in.etaD)
}

// batteryFlowed reports whether the last greedy run left any flow, however
// small, on a battery leg. It reads the raw leg flows, before
// netChargeDischarge, and tests for exact zero, not batteryUsed's
// threshold: the battery-frozen run reproduces the free one bit for bit
// if, and only if, both battery legs carried nothing (see doc.go).
func (s *p5Scratch) batteryFlowed() bool {
	return s.srcs[dischargeLeg].flow != 0 || s.snks[chargeLeg].flow != 0
}

// netChargeDischarge restores the paper's brc(τ)·bdc(τ) ≡ 0 requirement
// when a solution charges and discharges in the same slot (a mandatory
// excess charging while a profitable pair discharges). The replacement is
// the unique pure action with the same stored-energy effect
// ηc·brc − ηd·bdc; the energy-balance residual the engine computes absorbs
// the difference as waste or purchase. A plain min() netting would NOT be
// level-preserving for ηc ≠ ηd — the offline LPs even exploit that gap by
// "pumping" the battery to burn surplus energy — so the conversion must go
// through the stored-energy delta.
func netChargeDischarge(res *p5Result, etaC, etaD float64) {
	if res.charge <= 1e-12 || res.discharge <= 1e-12 {
		return
	}
	if etaC <= 0 || etaD <= 0 {
		etaC, etaD = 1, 1
	}
	delta := etaC*res.charge - etaD*res.discharge
	if delta >= 0 {
		res.charge = delta / etaC
		res.discharge = 0
	} else {
		res.discharge = -delta / etaD
		res.charge = 0
	}
}

// maxInsertionLegs mirrors Go's pdqsort insertion-sort cutoff: a sort
// over at most this many elements runs exactly the insertion pass below.
const maxInsertionLegs = 12

// sortedIdxInto fills idx (reusing its storage) with leg indices in
// ascending cost order, reproducing the historical sort.Slice ordering
// bit for bit, ties included, so dispatch splits among identical units
// never diverge from it. Up to maxInsertionLegs legs (three fixed legs
// plus a handful of fuel-curve segments, every shipped configuration)
// it runs the stable insertion sort below, which is exactly the pass
// Go's sort runs on slices that short and two to three times faster
// than a library call there. Larger leg counts (a fleet of many
// quadratic-curve units) go through slices.SortFunc with a three-way
// cost comparison: it is generated from the same pdqsort template as
// sort.Slice and calls the comparison only as "less than zero", so it
// makes the same comparisons and swaps and yields the same permutation
// (TestSortedIdxMatchesSortSlice), without sort.Slice's two allocations
// per call.
func sortedIdxInto(idx []int, legs []leg) []int {
	if cap(idx) < len(legs) {
		idx = make([]int, len(legs))
	}
	idx = idx[:len(legs)]
	for i := range idx {
		idx[i] = i
	}
	if len(idx) > maxInsertionLegs {
		slices.SortFunc(idx, func(a, b int) int {
			switch ca, cb := legs[a].cost, legs[b].cost; {
			case ca < cb:
				return -1
			case ca > cb:
				return 1
			}
			return 0
		})
		return idx
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && legs[idx[j]].cost < legs[idx[j-1]].cost; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// allocate routes amount through the legs in the given order and returns
// the incurred cost. The final leg is expected to have infinite capacity.
func allocate(legs []leg, order []int, amount float64) float64 {
	cost := 0.0
	for _, i := range order {
		if amount <= 0 {
			break
		}
		l := &legs[i]
		take := min(amount, l.cap-l.flow)
		if take <= 0 {
			continue
		}
		l.flow += take
		amount -= take
		cost += take * l.cost
	}
	return cost
}
