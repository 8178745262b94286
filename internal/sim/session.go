package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/market"
	"github.com/smartdpss/smartdpss/internal/queue"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// SlotInput is one fine slot's exogenous inputs as a streaming caller
// supplies them: the trace row that batch Run reads from a trace.Set.
// All energies are MWh per fine slot, prices USD/MWh. Step accepts only
// finite values, energies in [0, trace.MaxEnergyMWh] and prices in the
// market's [0, PmaxUSD] (PriceLT only where it is read).
type SlotInput struct {
	// DemandDS is dds(τ), the delay-sensitive demand served this slot.
	DemandDS float64 `json:"demandDS"`
	// DemandDT is ddt(τ), the delay-tolerant demand joining the backlog.
	DemandDT float64 `json:"demandDT"`
	// Renewable is r(τ), the renewable production.
	Renewable float64 `json:"renewable"`
	// PriceRT is prt(τ), the real-time market price.
	PriceRT float64 `json:"priceRT"`
	// PriceLT is plt(t), the long-term market price. It is read only at
	// coarse boundaries (slot ≡ 0 mod T) but must be populated every
	// slot so a snapshot/restore cycle never changes what a boundary
	// sees.
	PriceLT float64 `json:"priceLT"`
}

// validate rejects, before the session changes, every input the slot
// model cannot execute: a non-finite value (a NaN demand would sail
// through the slot arithmetic and poison every accumulator downstream),
// demand or renewable output below zero or above trace.MaxEnergyMWh
// (batch runs reject all of these in trace validation), and a price
// outside the market's [0, pmax] — the real-time price every slot, and
// the long-term price at a coarse boundary, the only slot that reads it.
func (in SlotInput) validate(pmax float64, boundary bool) error {
	inf := math.Inf(1)
	ltLo, ltHi := -inf, inf
	if boundary {
		ltLo, ltHi = 0, pmax
	}
	if err := checkInput("DemandDS", in.DemandDS, 0, trace.MaxEnergyMWh); err != nil {
		return err
	}
	if err := checkInput("DemandDT", in.DemandDT, 0, trace.MaxEnergyMWh); err != nil {
		return err
	}
	if err := checkInput("Renewable", in.Renewable, 0, trace.MaxEnergyMWh); err != nil {
		return err
	}
	if err := checkInput("PriceRT", in.PriceRT, 0, pmax); err != nil {
		return err
	}
	return checkInput("PriceLT", in.PriceLT, ltLo, ltHi)
}

// checkInput returns a *ValidationError for field unless v is finite and
// within [lo, hi]. v−v is zero exactly when v is finite; testing the
// accepted case first keeps the per-slot cost to a few comparisons.
func checkInput(field string, v, lo, hi float64) error {
	if v >= lo && v <= hi && v-v == 0 {
		return nil
	}
	if v-v != 0 {
		return &ValidationError{Field: field, Reason: "non-finite value"}
	}
	return &ValidationError{Field: field, Reason: fmt.Sprintf("%g outside [%g, %g]", v, lo, hi)}
}

// SlotOutcome is one committed slot: the outcome the controller saw, the
// decision actually executed after the physical rescue chain, and the
// slot's cost contribution to the paper's Cost(τ).
type SlotOutcome struct {
	Outcome
	// Executed is the decision after validation clamps and the rescue
	// chain (real-time top-up, curtailed deferrable service, extra
	// discharge); it is what the physical state advanced with.
	Executed Decision
	// CostUSD is the slot's Cost(τ): long-term share, real-time buy, UPS
	// operation, waste penalty, and generation fuel + startup.
	CostUSD float64
	// GridMWh is the slot's total grid draw — the delivered long-term
	// share plus the executed real-time purchase. Multi-site runs record
	// it per site and slot, then sum it across sites slot by slot to
	// track the fleet-level aggregate peak, which no per-site report can
	// reconstruct.
	GridMWh float64
	// GenMWh is the slot's delivered on-site generation, so external
	// harnesses can close the slot's energy balance without fleet
	// internals (zero when no fleet is configured).
	GenMWh float64
}

// Snapshotter is implemented by controllers whose internal state can be
// checkpointed. AppendState appends the controller's state to dst as one
// compact JSON value with no string that encoding/json would escape —
// the session embeds it in its Checkpoint verbatim, so it writes into
// the checkpoint's own buffers instead of marshalling a blob of its own.
// RestoreState takes that value on a freshly constructed controller of
// the same configuration. It is all-or-nothing: it decodes and checks
// the whole value before it assigns anything, so on error the
// controller is unchanged. Controllers without it (the offline
// benchmarks, which precompute plans from the full trace) make
// Session.Snapshot fail with ErrSnapshotUnsupported.
type Snapshotter interface {
	AppendState(dst []byte) ([]byte, error)
	RestoreState([]byte) error
}

// Session is a resumable step-wise simulation: the batch slot loop of
// Run split at its natural seam so callers — a streaming daemon, a test
// harness, Run itself — drive one slot at a time.
//
// The protocol per slot is Step(input) → Decision, then Commit() →
// SlotOutcome. Step plans: it opens the coarse interval at boundaries
// (PlanCoarse → market commitment), advances the fleet's synchronization
// countdowns, builds the controller's observation and validates the
// planned decision. Commit executes: fleet dispatch, the physical rescue
// chain, battery/market/backlog updates, the session's running totals
// and the controller's outcome callback. After the last Commit (or
// earlier, for a truncated run), Finish() builds and returns the Report.
// Plan and Execute are the same two halves for callers that do not
// need the decision and the outcome as copies: batch replay loops.
//
// Between slots — never between a Step and its Commit — the full
// simulation state can be captured with Snapshot and later reinstated
// with Restore, on this session or an identically configured one in
// another process. A run resumed from a snapshot is bit-identical to one
// that never stopped: every component restores its state verbatim.
//
// Sessions are not safe for concurrent use.
type Session struct {
	cfg         Config
	ctrl        Controller
	horizon     int
	fingerprint func() string
	hash        string // lazily computed by ConfigHash

	ctrlState    []byte // the controller's last AppendState, reused
	snapshotSize int    // length of the last Snapshot, to size the next

	batt    *battery.Battery
	fleet   *generator.Fleet
	acct    *market.Account
	backlog *queue.Backlog
	tot     Totals

	slot     int
	finished bool

	// pending Step awaiting Commit: the controller's observation (it
	// carries the slot's demand, renewable and price) and its decision,
	// built in place by Plan and read in place by Execute
	pending bool
	pObs    FineObs
	pDec    Decision
	// out is the last committed slot, written in place by Execute
	out SlotOutcome
}

// NewSession builds a session over horizon hourly fine slots, the one
// slot length of every layer (trace.SlotsPerDay a day). fingerprint
// supplies an opaque caller-defined configuration label folded into the
// checkpoint hash — engine.Session passes a digest of its Options so
// checkpoints cannot cross configurations that map to the same
// sim.Config (e.g. different V parameters); pass nil when the sim.Config
// is the whole configuration. It is a function, not a string, so batch
// runs that never checkpoint never pay for computing it (ConfigHash
// calls it lazily, at most once).
func NewSession(cfg Config, ctrl Controller, horizon int, fingerprint func() string) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctrl == nil {
		return nil, &ValidationError{Field: "Controller", Reason: "nil controller"}
	}
	if ctrl.CoarseSlots() <= 0 {
		return nil, fmt.Errorf("sim: controller %q has non-positive T", ctrl.Name())
	}
	if horizon < 0 {
		return nil, &ValidationError{Field: "Horizon", Reason: "negative horizon"}
	}
	batt, err := battery.New(cfg.Battery)
	if err != nil {
		return nil, err
	}
	fleet, err := generator.NewFleet(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	acct, err := market.NewAccount(market.Params{PgridMWh: cfg.PgridMWh, PmaxUSD: cfg.PmaxUSD})
	if err != nil {
		return nil, err
	}
	if n, ok := ctrl.(*NoisyController); ok {
		n.maxDraws = maxNoiseDraws(horizon, ctrl.CoarseSlots())
	}
	return &Session{
		cfg:         cfg,
		ctrl:        ctrl,
		horizon:     horizon,
		fingerprint: fingerprint,
		batt:        batt,
		fleet:       fleet,
		acct:        acct,
		backlog:     queue.NewBacklog(),
	}, nil
}

// Slot returns the index of the next fine slot to Step (equivalently,
// the number of committed slots).
func (s *Session) Slot() int { return s.slot }

// Horizon returns the total number of fine slots.
func (s *Session) Horizon() int { return s.horizon }

// Pending reports whether a planned decision awaits Commit.
func (s *Session) Pending() bool { return s.pending }

// Finished reports whether Finish has run.
func (s *Session) Finished() bool { return s.finished }

// ControllerName returns the controller's report name.
func (s *Session) ControllerName() string { return s.ctrl.Name() }

// Status is a live mid-run view of the session for monitoring surfaces:
// the running totals and ledgers Finish reports, unscrubbed, plus the
// current physical state. Derived figures (time averages, availability
// ratios) are intentionally absent — Finish computes those.
type Status struct {
	Slot    int `json:"slot"`
	Horizon int `json:"horizon"`

	TotalCostUSD     float64 `json:"totalCostUSD"`
	LTCostUSD        float64 `json:"ltCostUSD"`
	RTCostUSD        float64 `json:"rtCostUSD"`
	BatteryOpUSD     float64 `json:"batteryOpUSD"`
	WasteCostUSD     float64 `json:"wasteCostUSD"`
	GenFuelUSD       float64 `json:"genFuelUSD"`
	GenStartupUSD    float64 `json:"genStartupUSD"`
	EmergencyCostUSD float64 `json:"emergencyCostUSD"`

	LTEnergyMWh  float64 `json:"ltEnergyMWh"`
	RTEnergyMWh  float64 `json:"rtEnergyMWh"`
	RenewableMWh float64 `json:"renewableMWh"`
	GenEnergyMWh float64 `json:"genEnergyMWh"`
	WasteMWh     float64 `json:"wasteMWh"`
	UnservedMWh  float64 `json:"unservedMWh"`
	ServedDTMWh  float64 `json:"servedDTMWh"`
	GenCO2Kg     float64 `json:"genCO2Kg"`

	BacklogMWh  float64 `json:"backlogMWh"`
	BatteryMWh  float64 `json:"batteryMWh"`
	BatteryOps  int     `json:"batteryOps"`
	PeakGridMW  float64 `json:"peakGridMW"`
	Unavailable int     `json:"unavailable"`
}

// Status returns the live mid-run view.
func (s *Session) Status() Status {
	return Status{
		Slot:             s.slot,
		Horizon:          s.horizon,
		TotalCostUSD:     s.tot.TotalCostUSD,
		LTCostUSD:        s.acct.LongTermCost(),
		RTCostUSD:        s.acct.RealTimeCost(),
		BatteryOpUSD:     s.tot.BatteryOpUSD,
		WasteCostUSD:     s.tot.WasteCostUSD,
		GenFuelUSD:       s.tot.GenFuelUSD,
		GenStartupUSD:    s.tot.GenStartupUSD,
		EmergencyCostUSD: s.tot.EmergencyCostUSD,
		LTEnergyMWh:      s.acct.LongTermEnergy(),
		RTEnergyMWh:      s.acct.RealTimeEnergy(),
		RenewableMWh:     s.tot.RenewableMWh,
		GenEnergyMWh:     s.tot.GenEnergyMWh,
		WasteMWh:         s.tot.WasteMWh,
		UnservedMWh:      s.tot.UnservedMWh,
		ServedDTMWh:      s.tot.ServedDTMWh,
		GenCO2Kg:         s.tot.GenCO2Kg,
		BacklogMWh:       s.backlog.Len(),
		BatteryMWh:       s.batt.Level(),
		BatteryOps:       s.batt.Ops(),
		PeakGridMW:       s.tot.PeakGridMW,
		Unavailable:      s.tot.Unavailable,
	}
}

// Step plans the next fine slot: it validates the input (a
// *ValidationError leaves the session unchanged), at a coarse boundary
// runs PlanCoarse and commits the long-term purchase, then advances the
// fleet, builds the controller's observation from the input, and
// validates the planned decision. The returned Decision is the
// controller's plan after validation clamps but before the rescue chain;
// the decision actually executed comes back from Commit.
func (s *Session) Step(in SlotInput) (Decision, error) {
	if err := s.Plan(&in); err != nil {
		return Decision{}, err
	}
	return s.pDec, nil
}

// Plan is Step for callers that do not read the planned decision, such
// as replay loops: it plans the next slot from *in, which it reads and
// does not keep. The observation and the decision are built in the
// session's pending slot, so no slot value is copied on the way.
func (s *Session) Plan(in *SlotInput) error {
	if s.finished {
		return ErrSessionFinished
	}
	if s.pending {
		return ErrPendingDecision
	}
	if s.slot >= s.horizon {
		return fmt.Errorf("%w: slot %d of horizon %d", ErrHorizonExhausted, s.slot, s.horizon)
	}
	slot := s.slot
	T := s.ctrl.CoarseSlots()
	if err := in.validate(s.cfg.PmaxUSD, slot%T == 0); err != nil {
		return err
	}
	if slot%T == 0 {
		if err := s.coarseBoundary(in, slot, min(T, s.horizon-slot)); err != nil {
			return err
		}
	}

	// Advance every unit's synchronization countdown before the
	// controller observes the fleet, so a unit coming online this slot is
	// visible (and dispatchable) rather than silently shut down.
	s.fleet.Tick()
	obs := &s.pObs
	obs.Slot = slot
	obs.Horizon = s.horizon
	obs.PriceRT = in.PriceRT
	obs.DemandDS = in.DemandDS
	obs.DemandDT = in.DemandDT
	obs.Renewable = in.Renewable
	obs.LongTermDue = s.acct.LongTermDue()
	obs.RTHeadroom = s.acct.RealTimeHeadroom()
	obs.Battery = s.batt.Level()
	obs.MaxCharge = s.batt.MaxChargeNow()
	obs.MaxDischarge = s.batt.MaxDischargeNow()
	obs.Backlog = s.backlog.Len()
	obs.SdtMax = s.cfg.SdtMaxMWh
	obs.Smax = s.cfg.SmaxMWh
	obs.GenUnits = s.fleet.Observe()
	s.pDec = s.ctrl.PlanFine(obs)
	if err := s.validateDecision(&s.pDec, obs); err != nil {
		return fmt.Errorf("sim: slot %d controller %q: %w", slot, s.ctrl.Name(), err)
	}
	s.pending = true
	return nil
}

func (s *Session) coarseBoundary(in *SlotInput, slot, slots int) error {
	obs := CoarseObs{
		Slot:         slot,
		Slots:        slots,
		PriceLT:      in.PriceLT,
		DemandDS:     in.DemandDS,
		DemandDT:     in.DemandDT,
		Renewable:    in.Renewable,
		Battery:      s.batt.Level(),
		MaxDischarge: s.batt.MaxDischargeNow(),
		Backlog:      s.backlog.Len(),
	}
	gbef := s.ctrl.PlanCoarse(obs)
	if math.IsNaN(gbef) || math.IsInf(gbef, 0) {
		return fmt.Errorf("sim: controller %q returned non-finite gbef", s.ctrl.Name())
	}
	gbef = clamp(gbef, 0, s.cfg.PgridMWh*float64(slots))
	if err := s.acct.BeginCoarse(gbef, obs.PriceLT, slots); err != nil {
		return fmt.Errorf("sim: coarse plan at slot %d: %w", slot, err)
	}
	return nil
}

// Commit executes the pending decision against the physical state and
// advances the session to the next slot.
func (s *Session) Commit() (SlotOutcome, error) {
	o, err := s.Execute()
	if err != nil {
		return SlotOutcome{}, err
	}
	return *o, nil
}

// Execute is Commit for callers that read the outcome in place: it
// returns the session's own record of the committed slot, valid until
// the next Execute or Commit. It reads the pending observation and
// decision in place and executes the decision in the record, so the
// planned decision stays as Plan left it.
func (s *Session) Execute() (*SlotOutcome, error) {
	if s.finished {
		return nil, ErrSessionFinished
	}
	if !s.pending {
		return nil, ErrNoPendingDecision
	}

	o := &s.out
	o.Executed = s.pDec
	var (
		slot = s.slot
		obs  = &s.pObs
		dec  = &o.Executed
		dds  = obs.DemandDS
		ddt  = obs.DemandDT
		r    = obs.Renewable
		prt  = obs.PriceRT
	)

	// Dispatch the on-site fleet first: its delivered energy is
	// committed supply for the balance below (a no-op when no fleet is
	// configured).
	var gen generator.Outcome
	for _, out := range s.fleet.Dispatch(dec.GenerateUnits) {
		gen.DeliveredMWh += out.DeliveredMWh
		gen.FuelUSD += out.FuelUSD
		gen.StartupUSD += out.StartupUSD
		gen.CO2Kg += out.CO2Kg
	}

	// Execute the slot: the balance residual becomes waste or unserved
	// delay-sensitive energy, so Eq. (4) holds by construction:
	//   s(τ) + bdc(τ) − brc(τ) = dds_served + sdt(τ) + W(τ).
	supply := obs.LongTermDue + dec.Grt + r + gen.DeliveredMWh
	net := supply + dec.Discharge - dds - dec.ServeDT - dec.Charge

	// Physical rescue chain for residual deficits. A grid-connected
	// datacenter cannot under-draw by plan: unplanned consumption settles
	// reactively on the real-time market within the Pgrid cap; deferrable
	// service is curtailed next (the energy simply stays queued); the
	// inline UPS bridges what remains; only then is delay-sensitive load
	// shed (the availability role the paper assigns to the Bmin reserve,
	// Sec. II-B.4).
	if net < 0 && dec.Charge > 0 {
		cancel := min(dec.Charge, -net)
		dec.Charge -= cancel
		net += cancel
	}
	if net < 0 {
		headroom := s.acct.RealTimeHeadroom() - dec.Grt
		smaxRoom := s.cfg.SmaxMWh - (obs.LongTermDue + dec.Grt + r + gen.DeliveredMWh)
		topup := min(-net, max(0, min(headroom, smaxRoom)))
		if topup > 0 {
			dec.Grt += topup
			supply += topup
			net += topup
		}
	}
	if net < 0 && dec.ServeDT > 0 {
		cut := min(dec.ServeDT, -net)
		dec.ServeDT -= cut
		net += cut
	}
	if net < 0 && dec.Charge <= decisionTol {
		dec.Charge = 0
		extra := min(obs.MaxDischarge-dec.Discharge, -net)
		if extra > 0 {
			dec.Discharge += extra
			net += extra
		}
	}

	// The balance residual is numerical round-off when it is sub-epsilon:
	// normalize it (and IEEE negative zero) before it enters the
	// accounting, so report totals cannot pick up a stray sign bit.
	waste, unserved := 0.0, 0.0
	if net >= 0 {
		waste = cleanZero(net)
	} else {
		unserved = cleanZero(-net)
	}

	if err := s.batt.Apply(dec.Charge, dec.Discharge); err != nil {
		return nil, fmt.Errorf("sim: slot %d battery: %w", slot, err)
	}
	ltCost, err := s.acct.SettleLongTermSlot()
	if err != nil {
		return nil, fmt.Errorf("sim: slot %d settle: %w", slot, err)
	}
	rtCost, err := s.acct.BuyRealTime(dec.Grt, prt)
	if err != nil {
		return nil, fmt.Errorf("sim: slot %d real-time buy: %w", slot, err)
	}

	backlogBefore := s.backlog.Len()
	served := s.backlog.Serve(slot, dec.ServeDT)
	if math.Abs(served-dec.ServeDT) > decisionTol {
		return nil, fmt.Errorf("sim: slot %d served %g != requested %g", slot, served, dec.ServeDT)
	}
	s.backlog.Arrive(slot, ddt)

	// Verify the balance identity (engine invariant).
	lhs := supply + dec.Discharge - dec.Charge
	rhs := (dds - unserved) + served + waste
	if math.Abs(lhs-rhs) > 1e-6 {
		return nil, fmt.Errorf("sim: slot %d energy balance violated: %g != %g", slot, lhs, rhs)
	}

	opCost := 0.0
	if dec.Charge > 0 || dec.Discharge > 0 {
		opCost = s.cfg.Battery.OpCostUSD
	}
	wasteCost := waste * s.cfg.WasteCostUSD
	slotCost := ltCost + rtCost + opCost + wasteCost + gen.FuelUSD + gen.StartupUSD

	gridDraw := obs.LongTermDue + dec.Grt
	backlog, level := s.backlog.Len(), s.batt.Level()

	// Accrue the totals no component keeps. The backlog mean and the
	// extremes range over the post-slot backlog and battery level.
	t := &s.tot
	t.TotalCostUSD += slotCost
	t.BatteryOpUSD += opCost
	t.WasteCostUSD += wasteCost
	t.EmergencyCostUSD += unserved * s.cfg.EmergencyCostUSD
	t.GenFuelUSD += gen.FuelUSD
	t.GenStartupUSD += gen.StartupUSD
	t.GenEnergyMWh += gen.DeliveredMWh
	t.GenCO2Kg += gen.CO2Kg
	t.WasteMWh += waste
	t.UnservedMWh += unserved
	t.RenewableMWh += r
	t.ServedDTMWh += served
	t.BacklogMeanMWh += (backlog - t.BacklogMeanMWh) / float64(slot+1)
	t.BacklogMaxMWh = max(t.BacklogMaxMWh, backlog)
	if slot == 0 || level < t.BatteryMinMWh {
		t.BatteryMinMWh = level
	}
	if slot == 0 || level > t.BatteryMaxMWh {
		t.BatteryMaxMWh = level
	}
	if gridDraw > t.PeakGridMW {
		t.PeakGridMW = gridDraw
	}
	if gridDraw > 0.95*s.cfg.PgridMWh {
		t.NearPeakSlots++
	}
	if !(s.batt.Available() && unserved <= decisionTol) {
		t.Unavailable++
	}

	o.Outcome = Outcome{
		Slot:          slot,
		ServedDT:      served,
		BacklogBefore: backlogBefore,
		BacklogAfter:  backlog,
		Waste:         waste,
		Unserved:      unserved,
		Battery:       level,
	}
	o.CostUSD = slotCost
	o.GridMWh = gridDraw
	o.GenMWh = gen.DeliveredMWh
	s.ctrl.RecordOutcome(o.Outcome)

	s.pending = false
	s.slot++
	return o, nil
}

// Finish builds and returns the report. It may run before the horizon
// is exhausted (a truncated run reports the committed slots); afterwards
// the session accepts no further calls.
func (s *Session) Finish() (*Report, error) {
	if s.finished {
		return nil, ErrSessionFinished
	}
	if s.pending {
		return nil, ErrPendingDecision
	}
	s.finished = true
	return s.report(), nil
}

// checkDecisionField validates one decision field against its admissible
// maximum, clamping sub-tolerance overshoot and rejecting anything
// larger. Field-by-field calls keep the decision off the heap — the old
// pointer-table formulation forced every slot's Decision to escape.
func checkDecisionField(name string, val *float64, bound float64) error {
	if math.IsNaN(*val) || math.IsInf(*val, 0) {
		return fmt.Errorf("non-finite %s", name)
	}
	limit := max(0, bound)
	if *val < -decisionTol || *val > limit+decisionTol {
		return fmt.Errorf("%s = %g outside [0, %g]", name, *val, limit)
	}
	*val = clamp(*val, 0, limit)
	return nil
}

// validateDecision checks the decision against the slot's admissible set,
// clamping sub-tolerance overshoot and rejecting anything larger.
func (s *Session) validateDecision(dec *Decision, obs *FineObs) error {
	if err := checkDecisionField("grt", &dec.Grt,
		min(obs.RTHeadroom, s.cfg.SmaxMWh-obs.LongTermDue-obs.Renewable)); err != nil {
		return err
	}
	if err := checkDecisionField("serveDT", &dec.ServeDT, min(obs.Backlog, obs.SdtMax)); err != nil {
		return err
	}
	if err := checkDecisionField("charge", &dec.Charge, obs.MaxCharge); err != nil {
		return err
	}
	if err := checkDecisionField("discharge", &dec.Discharge, obs.MaxDischarge); err != nil {
		return err
	}
	if len(dec.GenerateUnits) > len(obs.GenUnits) {
		return fmt.Errorf("generateUnits has %d entries for a %d-unit fleet",
			len(dec.GenerateUnits), len(obs.GenUnits))
	}
	for u := range dec.GenerateUnits {
		val := &dec.GenerateUnits[u]
		if math.IsNaN(*val) || math.IsInf(*val, 0) {
			return fmt.Errorf("non-finite generateUnits[%d]", u)
		}
		limit := max(0, obs.GenUnits[u].RequestMax)
		if *val < -decisionTol || *val > limit+decisionTol {
			return fmt.Errorf("generateUnits[%d] = %g outside [0, %g]", u, *val, limit)
		}
		*val = clamp(*val, 0, limit)
	}
	if dec.Charge > decisionTol && dec.Discharge > decisionTol {
		return errors.New("charge and discharge in the same slot")
	}
	return nil
}
