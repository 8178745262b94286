package core

import (
	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/queue"
	"github.com/smartdpss/smartdpss/internal/scratch"
	"github.com/smartdpss/smartdpss/internal/sim"
)

// Controller is the SmartDPSS online policy (Algorithm 1). It keeps the
// delay-aware virtual queue Y internally, freezes the concatenated queue
// state Θ(t) = [Q(t), X(t), Y(t)] at each coarse boundary (the Sec. IV-A
// approximation), and solves P4/P5 per slot.
type Controller struct {
	params Params
	delay  *queue.Delay

	// Queue state frozen at the current coarse-slot start.
	qT, yT, xT float64

	// est tracks trailing means of the exogenous inputs over the previous
	// coarse interval for P4's deficit estimate (see sim.TrailingMeans).
	est sim.TrailingMeans

	// specs is the on-site generation fleet (Params.Fleet); merit holds
	// the unit indices in ascending base-marginal-price order.
	specs []generator.Params
	merit []int

	// Real-time price forecast for the unit-commitment lookahead: the
	// trailing mean of the previous coarse interval's observed prt, the
	// same causal estimator P4 uses for demand (see sim.TrailingMeans).
	prtSum   float64
	prtN     int
	prtMean  float64
	prtReady bool

	// Demand-envelope estimate frozen at the coarse boundary (the same
	// per-slot view P4 planned with), so commitment decisions are stable
	// within an interval instead of flapping on partial trailing means.
	envDDS, envDDT, envRen float64

	// scr is the per-controller slot-loop scratch: every buffer the P5
	// solver and the fleet planner need is owned here and reused across
	// fine slots, so steady-state planning allocates nothing.
	scr slotScratch
}

// slotScratch is the Controller's reusable slot-loop storage. Buffers
// grow to the fleet's size on first use and are reused verbatim after
// that; the zero value is ready.
type slotScratch struct {
	p5 p5Scratch // merit-order solver legs and order buffers

	flowsFree   []float64 // per-segment flows of the battery-free solve
	flowsFrozen []float64 // per-segment flows of the battery-frozen solve
	adopted     []float64 // flows of the adopted fleet solve (survives later solves)

	in     p5Input  // the slot's P5 instance; planFleet grows it into the committed fleet's
	best   p5Result // PlanFine's solve without the fleet arm
	frozen p5Result // the battery-frozen side of the last solveBest
	// planFleet's candidate and adopted solves; adoption swaps their
	// roles instead of copying.
	cand, adopt p5Result

	segsCur  []genSeg // committed segment set under construction
	segsCand []genSeg // candidate segment set (ping-pongs with segsCur on adoption)
	segTmp   []generator.Segment

	committedMin []float64
	starts       []float64
	committed    []bool
	units        []float64
	above        []float64
}

var _ sim.Controller = (*Controller)(nil)

// New returns a SmartDPSS controller for the given parameters.
func New(p Params) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d, err := queue.NewDelay(p.Epsilon)
	if err != nil {
		return nil, err
	}
	c := &Controller{params: p, delay: d, specs: p.Fleet}
	c.merit = generator.MeritOrder(c.specs)
	return c, nil
}

// Name implements sim.Controller.
func (c *Controller) Name() string { return "SmartDPSS" }

// CoarseSlots implements sim.Controller.
func (c *Controller) CoarseSlots() int { return c.params.T }

// Params returns the controller configuration.
func (c *Controller) Params() Params { return c.params }

// QueueY returns the current delay virtual queue value Y(τ).
func (c *Controller) QueueY() float64 { return c.delay.Value() }

// FrozenState returns the queue state Θ(t) = [Q(t), X(t), Y(t)] captured at
// the last coarse boundary.
func (c *Controller) FrozenState() (q, x, y float64) { return c.qT, c.xT, c.yT }

// PlanCoarse solves P4: pick gbef(t) minimizing
// gbef·[V·plt − Q(t) − Y(t)] subject to covering the observed
// delay-sensitive deficit and the per-slot grid cap. The objective is
// linear, so the optimum is bang-bang: buy the maximum when the weight is
// negative (grid cheap relative to queue pressure), otherwise buy exactly
// the deficit not coverable by renewables and the battery.
func (c *Controller) PlanCoarse(obs sim.CoarseObs) float64 {
	p := &c.params
	c.qT = obs.Backlog
	c.yT = c.delay.Value()
	c.xT = obs.Battery - p.XShift()

	// Per-slot demand and renewable estimates: the trailing means of the
	// previous interval when available, otherwise the boundary snapshot
	// the paper's Algorithm 1 reads (SnapshotPlanning forces the latter;
	// see the EXT-4 ablation).
	dds, ddt, ren := obs.DemandDS, obs.DemandDT, obs.Renewable
	if c.est.Ready() && !p.SnapshotPlanning {
		dds, ddt, ren = c.est.Means()
	}
	c.est.Reset()
	c.envDDS, c.envDDT, c.envRen = dds, ddt, ren
	// Roll the real-time price estimator over: the finished interval's
	// mean becomes the commitment lookahead's price forecast.
	if c.prtN > 0 {
		c.prtMean = c.prtSum / float64(c.prtN)
		c.prtReady = true
	}
	c.prtSum, c.prtN = 0, 0

	if p.DisableLongTerm {
		return 0
	}
	// On-site generation arm: when a unit's marginal fuel price undercuts
	// the offered long-term price — by enough that a full interval of
	// self-generation also recovers a cold start — P5 will prefer
	// self-generation, so the ahead-purchase should not cover the share
	// the fleet can carry. The startup condition keeps P4 from planning
	// around a unit whose startup economics P5 will veto. The committed
	// capacity sums across every unit that passes it.
	selfGen := 0.0
	for i := range c.specs {
		gp := &c.specs[i]
		margin := obs.PriceLT - gp.MarginalAt(0)
		if margin > 0 && margin*gp.CapacityMWh*float64(p.T) > gp.StartupUSD {
			selfGen += gp.CapacityMWh
		}
	}
	weight := p.V*obs.PriceLT - (c.qT + c.yT)
	slots := float64(obs.Slots)
	if weight < 0 {
		// Queue pressure exceeds the weighted price: buy the maximum the
		// system can consume. The printed P4 is linear and its optimum is
		// the raw cap T·Pgrid, but P4 as printed drops the V·W waste term
		// of P3; retaining it caps the purchase at estimated serviceable
		// load — demand, backlog drain at the service rate, and battery
		// headroom — instead of flooding the plant (see doc.go).
		drain := min(p.SdtMaxMWh, obs.Backlog/slots+ddt)
		chargeable := max(0, (p.Battery.CapacityMWh-obs.Battery)/p.Battery.ChargeEff) / slots
		usable := dds - ren + drain + min(chargeable, p.Battery.MaxChargeMWh)
		return slots * clamp(usable, 0, p.PgridMWh)
	}
	// Deliverable battery energy spread across the interval, respecting
	// the per-slot discharge cap.
	avail := max(0, (obs.Battery-p.Battery.MinLevelMWh)/p.Battery.DischargeEff)
	battPerSlot := min(p.Battery.MaxDischargeMWh, avail/slots)
	deficit := dds - ren - battPerSlot - selfGen
	return slots * clamp(deficit, 0, p.PgridMWh)
}

// PlanFine solves P5 for one fine slot using the frozen queue state, with
// the UPS fixed charge handled exactly by comparing the battery-frozen and
// battery-free optima (see doc.go). The returned Decision's GenerateUnits
// borrows controller-owned scratch and is valid until the next PlanFine
// call — the engine consumes each decision within its slot.
func (c *Controller) PlanFine(obs *sim.FineObs) sim.Decision {
	p := &c.params
	c.est.Observe(obs.DemandDS, obs.DemandDT, obs.Renewable)
	c.prtSum += obs.PriceRT
	c.prtN++
	qy := c.qT + c.yT
	// The instance and its result live in controller scratch, written
	// field by field: a composite literal would be built in a temporary
	// and block-copied.
	in, best := &c.scr.in, &c.scr.best
	in.dds = obs.DemandDS
	in.base = obs.LongTermDue + obs.Renewable
	in.grtMax = max(0, min(obs.RTHeadroom, p.SmaxMWh-obs.LongTermDue-obs.Renewable))
	in.sdtMax = max(0, min(obs.Backlog, obs.SdtMax))
	in.chargeMax = max(0, obs.MaxCharge)
	in.dischargeMax = max(0, obs.MaxDischarge)
	in.etaC = p.Battery.ChargeEff
	in.etaD = p.Battery.DischargeEff
	in.wGrt = p.V*obs.PriceRT - qy
	in.wSdt = -qy
	in.wCharge = c.qT + c.xT + c.yT
	in.wWaste = p.V*p.WasteCostUSD + qy
	in.wEmergency = p.V * p.EmergencyCostUSD
	in.genSegs = nil

	bestTotal := c.solveBest(in, best)
	dec := sim.Decision{
		Grt:       best.grt,
		ServeDT:   best.sdt,
		Charge:    best.charge,
		Discharge: best.discharge,
	}
	if len(c.specs) > 0 && len(obs.GenUnits) == len(c.specs) {
		c.planFleet(&dec, obs, in, qy, bestTotal)
	}
	return dec
}

// unitSegs appends unit ui's dispatch band above its committed minimum
// as fuel-curve segments with drift weights V·(marginal) − (Q+Y).
func (c *Controller) unitSegs(dst []genSeg, ui int, u *generator.UnitObs, qy float64) []genSeg {
	p := &c.params
	c.scr.segTmp = c.specs[ui].AppendSegments(c.scr.segTmp[:0], u.MinMWh, u.MaxMWh)
	for _, s := range c.scr.segTmp {
		dst = append(dst, genSeg{cap: s.Cap, w: p.V*s.USDPerMWh - qy, unit: ui})
	}
	return dst
}

// solveBest solves one P5 instance with the UPS fixed charge priced
// exactly (see doc.go): it keeps the cheaper of the battery-free and the
// battery-frozen optima after adding V·Cb to the side that moves the
// battery, preferring the frozen side on a tie. It writes the winner
// into res and returns its total. It builds and sorts the legs once for
// both solves and skips the frozen one when the free optimum leaves
// both battery legs at exactly zero flow, since it would return the
// same point. res.genFlows borrows a scratch buffer valid until the
// next solveBest call; adopters copy.
func (c *Controller) solveBest(in *p5Input, res *p5Result) float64 {
	p := &c.params
	n := len(in.genSegs)
	c.scr.flowsFree = scratch.For(c.scr.flowsFree, n)
	c.scr.flowsFrozen = scratch.For(c.scr.flowsFrozen, n)
	frozen := &c.scr.frozen
	s := &c.scr.p5
	s.prepare(in)
	s.greedy(in, in.chargeMax, in.dischargeMax, c.scr.flowsFree, res)
	if !s.batteryFlowed() {
		return res.obj
	}
	s.greedy(in, 0, 0, c.scr.flowsFrozen, frozen)
	freeTotal := res.obj
	if res.batteryUsed() {
		freeTotal += p.V * p.Battery.OpCostUSD
	}
	if freeTotal < frozen.obj-1e-12 {
		return freeTotal
	}
	*res = *frozen
	return frozen.obj
}

// fleetDecision rewrites dec from the solved committed-fleet P5: every
// committed unit runs its minimum stable load plus its segments' solved
// flows, pre-starting units carry their start signals, and the flexible
// real-time purchase is trimmed so committed supply stays inside the
// Smax cap (Eq. 1) the offline benchmarks optimize over.
func (c *Controller) fleetDecision(dec *sim.Decision, obs *sim.FineObs, res *p5Result,
	segs []genSeg, committedMin, starts []float64) {
	p := &c.params
	units := scratch.Zeroed(c.scr.units, len(c.specs))
	above := scratch.Zeroed(c.scr.above, len(c.specs))
	c.scr.units, c.scr.above = units, above
	minSum := 0.0
	for si, flow := range res.genFlows {
		above[segs[si].unit] += flow
	}
	for ui, min := range committedMin {
		units[ui] = min + above[ui]
		minSum += min
	}
	for ui, req := range starts {
		if req > 0 {
			units[ui] = req // start signal; delivers after the lag
		}
	}
	// total groups as minSum + res.gen; the goldens pin this summation
	// order bit for bit.
	total := minSum + res.gen
	grt := min(res.grt,
		max(0, p.SmaxMWh-obs.LongTermDue-obs.Renewable-total))
	*dec = sim.Decision{
		Grt:           grt,
		ServeDT:       res.sdt,
		Charge:        res.charge,
		Discharge:     res.discharge,
		GenerateUnits: units,
	}
}

// planFleet evaluates the on-site generation arm of P5 and overwrites
// dec when dispatching wins. It has two phases:
//
// Phase 1 — rolling unit commitment (CommitWindow W > 1 only). Instead
// of re-litigating each unit's existence every slot against an
// amortized startup, starts and stops follow the projected profit over
// the next W slots: the forecastable price (the trailing real-time mean
// of the previous coarse interval, the same causal estimator P4 uses
// for demand) is earned only by energy inside the demand envelope —
// estimated demand not already covered by renewables and the committed
// long-term delivery — while fuel is paid on the full dispatch level,
// so min-load energy beyond the envelope counts as pure cost. A unit
// starts when W slots of that profit recover a full cold start, and a
// running unit stops only when W slots project losses beyond the
// restart it would eventually pay, which carries it through the short
// dips the myopic arm flaps on. Committed units are binding: their
// minimum loads enter the P5 balance and their fuel-curve segments
// price the dispatch level, with no per-slot veto. The envelope is
// consumed in merit order, so a fleet of small units commits only the
// granularity the demand supports — where a single big unit is
// all-or-nothing.
//
// Phase 2 — myopic per-slot arm over the remaining units (and the whole
// fleet when W ≤ 1, the myopic default). Growing the set
// greedily in merit order, each unit's semi-continuous admissible set
// {0} ∪ [min, max] is handled by committing the minimum stable load
// into the balance (paying its exact fuel cost and collecting its queue
// relief), exposing the band above it as convex fuel-curve segments,
// and re-solving; the unit is adopted only when the drift objective
// improves. A cold start adds the startup cost amortized over one
// coarse interval (V·StartupUSD/T): startup is an inter-temporal cost a
// single-slot subproblem cannot attribute exactly, and a started unit
// typically runs for the remainder of the price regime that justified
// it — charging the full amount against one slot's gain would keep
// small units off while P4 has already planned around their output. A
// running unit receives the same amount as a keep-warm credit
// (hysteresis): shutting down during a short price dip forfeits the
// paid start and likely triggers a fresh one when the spike returns.
// Units off behind a synchronization lag cannot deliver this slot, so
// the arm instead pre-starts them whenever a slot of full output at the
// current real-time price beats fuel plus the amortized startup.
func (c *Controller) planFleet(dec *sim.Decision, obs *sim.FineObs, in *p5Input, qy, bestTotal float64) {
	p := &c.params
	committedMin := scratch.Zeroed(c.scr.committedMin, len(c.specs))
	starts := scratch.Zeroed(c.scr.starts, len(c.specs))
	c.scr.committedMin, c.scr.starts = committedMin, starts
	committed := scratch.Zeroed(c.scr.committed, len(c.specs))
	c.scr.committed = committed

	// in becomes the committed instance: its base collects the committed
	// units' minimum loads and its segments their dispatch bands. A
	// candidate is tried in place and undone when it is not adopted.
	in.genSegs = c.scr.segsCur[:0]
	curBest := bestTotal
	res, last := &c.scr.cand, &c.scr.adopt
	var lastSegs []genSeg
	adopted, preStart := false, false

	// Phase 1: window commitment. The projection window is clamped to
	// the slots actually remaining in the trace: near the last-day
	// boundary an unclamped W would earn profit from slots that never
	// execute, committing starts whose cost the run can no longer
	// recover (and a clamped window of ≤ 1 slot degenerates to the
	// myopic arm below, exactly as a configured W ≤ 1 does).
	effW := p.CommitWindow
	if obs.Horizon > 0 && obs.Horizon-obs.Slot < effW {
		effW = obs.Horizon - obs.Slot
	}
	if effW > 1 {
		W := float64(effW)
		phat := obs.PriceRT
		if c.prtReady {
			phat = c.prtMean
		}
		env := max(0, c.envDDS+c.envDDT-c.envRen-obs.LongTermDue)
		for _, ui := range c.merit {
			gp := &c.specs[ui]
			u := &obs.GenUnits[ui]
			m := gp.MarginalAt(0)
			// Dispatch level if committed; only envelope-covered energy
			// earns the forecast price.
			gstar := clamp(env, gp.MinLoadMWh, gp.CapacityMWh)
			profit := phat*min(gstar, env) - m*gstar
			switch {
			case u.MaxMWh > 0 && u.Running:
				if W*profit < -gp.StartupUSD {
					continue // release: projected losses exceed a restart
				}
			case u.MaxMWh > 0:
				if W*profit <= gp.StartupUSD {
					continue // margin does not recover a cold start
				}
			case u.RequestMax > 0 && !u.Running && !u.Starting:
				// Off behind a synchronization lag: send the start signal
				// on the same window economics; energy arrives after the
				// lag.
				if W*profit > gp.StartupUSD {
					starts[ui] = u.RequestMax
					preStart = true
				}
				continue
			default:
				continue
			}
			in.base += u.MinMWh
			// Committed segments grow monotonically in phase 1, so they
			// append in place into the scratch-backed set.
			in.genSegs = c.unitSegs(in.genSegs, ui, u, qy)
			committedMin[ui] = u.MinMWh
			committed[ui] = true
			env = max(0, env-gstar)
			adopted = true
		}
		if adopted {
			curBest = c.solveBest(in, last)
			lastSegs = in.genSegs
			c.adoptFlows(last)
		}
	}

	// Phase 2: myopic greedy over the units phase 1 left uncommitted.
	// The committed baseline is constant on both sides of each
	// comparison, so adding a unit is judged purely on its own merit.
	// Candidate segment sets build in a second scratch buffer that
	// ping-pongs with the committed set's on adoption, so the whole
	// greedy search reuses two buffers regardless of fleet size.
	candBuf := c.scr.segsCand
	for _, ui := range c.merit {
		if committed[ui] || starts[ui] > 0 {
			continue
		}
		gp := &c.specs[ui]
		u := &obs.GenUnits[ui]
		amortized := p.V * gp.StartupUSD / float64(p.T)
		if u.MaxMWh <= 0 {
			// Off behind a synchronization lag: pre-start when a slot of
			// full output at the current real-time price would beat both
			// the fuel bill and the amortized startup — the same
			// economics the lag-free arm applies through its offset.
			if u.RequestMax > 0 && !u.Running &&
				p.V*(obs.PriceRT-gp.MarginalAt(0))*gp.CapacityMWh > amortized {
				starts[ui] = u.RequestMax
				preStart = true
			}
			continue
		}

		base, segs := in.base, in.genSegs
		in.base = base + u.MinMWh
		in.genSegs = c.unitSegs(append(candBuf[:0], segs...), ui, u, qy)
		candBuf = in.genSegs
		offset := p.V*gp.FuelCost(u.MinMWh) - u.MinMWh*qy
		if u.Running {
			offset -= amortized
		} else {
			offset += amortized
		}

		total := c.solveBest(in, res)
		if total+offset < curBest-1e-12 {
			// Swap storage: the candidate set becomes the committed set
			// and the old committed backing hosts the next candidate
			// (nothing references it anymore).
			candBuf = segs
			// The adopted unit's offset is part of both sides of every
			// later comparison, so the rolling baseline carries the bare
			// solve total: adding the NEXT unit is judged purely on its
			// own offset against the marginal solve improvement.
			curBest = total
			committedMin[ui] = u.MinMWh
			res, last = last, res
			lastSegs = in.genSegs
			c.adoptFlows(last)
			adopted = true
		} else {
			in.base, in.genSegs = base, segs
		}
	}
	// Persist the (possibly regrown) backings for the next slot. Only the
	// slice headers shrink; lastSegs keeps its own view of the data until
	// the decision below is assembled.
	c.scr.segsCur = in.genSegs[:0]
	c.scr.segsCand = candBuf[:0]

	switch {
	case adopted:
		c.fleetDecision(dec, obs, last, lastSegs, committedMin, starts)
	case preStart:
		dec.GenerateUnits = starts
	}
}

// adoptFlows detaches an adopted result's per-segment flows from the
// solveBest scratch buffer they borrow, so later candidate solves cannot
// clobber them before the decision is assembled.
func (c *Controller) adoptFlows(res *p5Result) {
	if len(res.genFlows) == 0 {
		return
	}
	c.scr.adopted = append(c.scr.adopted[:0], res.genFlows...)
	res.genFlows = c.scr.adopted
}

// RecordOutcome implements sim.Controller: it advances the delay virtual
// queue Y with the executed service (Algorithm 1 step 3, Eq. 12).
func (c *Controller) RecordOutcome(out sim.Outcome) {
	c.delay.Update(out.ServedDT, out.BacklogBefore > 1e-12)
}

func clamp(x, lo, hi float64) float64 { return min(hi, max(lo, x)) }
