// Package engine holds the SmartDPSS implementation behind the public
// smartdpss package: policies, options, trace generation and the
// simulation entry point. The root package re-exports everything here
// via type aliases and thin wrappers; internal packages (experiments,
// suite) import engine directly so they can sit below the public facade
// without creating an import cycle.
package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/smartdpss/smartdpss/internal/baseline"
	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/core"
	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/pricing"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/solar"
	"github.com/smartdpss/smartdpss/internal/thermal"
	"github.com/smartdpss/smartdpss/internal/trace"
	"github.com/smartdpss/smartdpss/internal/wind"
	"github.com/smartdpss/smartdpss/internal/workload"
)

// Policy selects a control algorithm.
type Policy string

// Available policies.
const (
	// PolicySmartDPSS is the paper's online Lyapunov controller.
	PolicySmartDPSS Policy = "smartdpss"
	// PolicyImpatient serves all demand immediately (Sec. VI-A strawman).
	PolicyImpatient Policy = "impatient"
	// PolicyOfflineOptimal is the clairvoyant per-interval benchmark
	// (paper Sec. II-D).
	PolicyOfflineOptimal Policy = "offline"
	// PolicyOfflineHorizon is a single clairvoyant LP over the whole
	// horizon; use only on short horizons.
	PolicyOfflineHorizon Policy = "offline-horizon"
	// PolicyLookahead is a receding-horizon (MPC) controller with
	// Options.LookaheadWindow fine slots of perfect foresight — the
	// "T-Step Lookahead" family of the paper's related work.
	PolicyLookahead Policy = "lookahead"
	// PolicyLyapunov is the forecast-free stored-energy baseline of
	// Urgaonkar et al. (arXiv:1103.3099): price-threshold battery
	// charge/discharge around a perturbed target level, from
	// slot-observable state only. Tuned by Options.LyapunovV and
	// Options.LyapunovTheta.
	PolicyLyapunov Policy = "lyapunov"
)

// Report is the simulation outcome: cost decomposition, energy totals,
// delay statistics, battery and availability accounting.
type Report = sim.Report

// Options tunes the controller and the simulated plant. Every float
// field must be finite: Simulate and the session constructors reject
// NaN and ±Inf with ErrInvalidOptions.
type Options struct {
	// V is the Lyapunov cost–delay tradeoff parameter (paper Fig. 6(a,b)).
	V float64
	// Epsilon is the delay-queue growth parameter ε (paper Fig. 7).
	Epsilon float64
	// T is the number of fine slots per coarse slot (paper Fig. 6(c,d)).
	T int
	// SlotMinutes is the fine-slot length; the paper uses 15 or 60 minutes
	// (Sec. II). Zero means 60. It must match the traces' resolution.
	SlotMinutes int
	// PeakMW sizes the datacenter (grid cap Pgrid and battery sizing).
	PeakMW float64
	// BatteryMinutes sizes Bmax as minutes of peak demand (0 disables the
	// battery; the paper uses 0, 15 and 30).
	BatteryMinutes float64
	// BatteryMinMinutes sizes the availability reserve Bmin.
	BatteryMinMinutes float64
	// BatteryReferenceMW, when positive, sizes the battery against this
	// peak instead of PeakMW. The scaling experiment (Fig. 10) grows the
	// datacenter while the UPS "stays fixed due to limits of space and
	// capital cost" (Sec. V-C).
	BatteryReferenceMW float64
	// PmaxUSD is the market price cap.
	PmaxUSD float64
	// DisableLongTerm removes the long-term-ahead market ("RTM" in Fig. 7).
	DisableLongTerm bool
	// BatteryMaxOps is Nmax, the UPS operation budget over the horizon
	// (Eq. 9); zero means unlimited. Once exhausted the battery freezes
	// and the controller falls back to grid-only operation.
	BatteryMaxOps int
	// PeakChargeUSDPerMW applies an optional demand charge to the peak
	// grid draw (the paper's declared future work on peak management,
	// Sec. IV-C); reported separately from Cost(τ).
	PeakChargeUSDPerMW float64
	// SnapshotPlanning makes SmartDPSS plan each coarse interval from the
	// boundary-slot snapshot (the paper's literal Algorithm 1) instead of
	// the previous interval's trailing means — an ablation switch.
	SnapshotPlanning bool
	// LookaheadWindow is the foresight length (fine slots) of
	// PolicyLookahead; zero defaults to one coarse interval (T).
	LookaheadWindow int
	// LyapunovV is the cost-vs-queue weight of PolicyLyapunov's battery
	// thresholds; zero selects the scale-aware default (usable battery
	// span divided by PmaxUSD). Exposed to the tuner.
	LyapunovV float64
	// LyapunovTheta places PolicyLyapunov's battery target level as a
	// fraction of the usable band [Bmin, Bmax]; zero defaults to 0.6.
	LyapunovTheta float64
	// Fleet configures the dispatchable on-site generation units
	// (arXiv:1303.6775's self-generation source), one UnitSpec per
	// unit; a single generator is a one-unit Fleet. Units keep their
	// order. Units with zero capacity are dropped, so a Fleet that is
	// empty or holds only zero-capacity units is exactly
	// generation-free.
	Fleet []UnitSpec
	// CommitWindow is the unit-commitment lookahead W in fine slots:
	// with W > 1 the controller decides fleet starts/stops from the
	// projected margin over the next W slots instead of per-slot
	// amortized hysteresis (the W ≤ 1 myopic default, which is the
	// pre-fleet behavior).
	CommitWindow int
	// CarbonUSDPerTon is an optional carbon price: each unit's emission
	// intensity (UnitSpec.CO2KgPerMWh) folds into its marginal fuel
	// price at CarbonUSDPerTon/1000 USD per kg, so dispatch economics
	// and the reported fuel bill internalize emissions. Zero leaves
	// dispatch purely fuel-priced; emissions are reported either way.
	CarbonUSDPerTon float64
	// ObservationNoise adds uniform ±frac multiplicative errors to the
	// controller's view of demand, renewables and prices (Fig. 9).
	ObservationNoise float64
	// NoiseSeed seeds the observation noise stream.
	NoiseSeed int64
	// KeepSeries retains per-slot cost/backlog/battery series in the
	// report.
	KeepSeries bool
}

// UnitSpec describes one unit of an on-site generation fleet in
// datacenter-level units (MW and fractions; the engine converts them to
// per-slot MWh).
type UnitSpec struct {
	// CapacityMW is the unit's nameplate power. Zero disables the unit:
	// the engine drops it before any layer sees it, so Report.GenUnits
	// lists only the units with capacity, in Fleet order.
	CapacityMW float64
	// MinLoadFrac is the minimum stable load as a fraction of
	// CapacityMW.
	MinLoadFrac float64
	// RampMWPerHour bounds the output increase while synchronized
	// (0 means unconstrained).
	RampMWPerHour float64
	// FuelUSDPerMWh is the linear fuel price b of Fuel(g) = b·g + c·g².
	// Zero means the 85 USD/MWh default.
	FuelUSDPerMWh float64
	// FuelQuadUSD is the quadratic fuel-curve coefficient c (USD/MWh²).
	FuelQuadUSD float64
	// StartupUSD is the fixed cost per cold start.
	StartupUSD float64
	// StartupLagSlots is the synchronization delay in fine slots.
	StartupLagSlots int
	// CO2KgPerMWh is the emission intensity (kg CO₂ per delivered MWh);
	// see Options.CarbonUSDPerTon.
	CO2KgPerMWh float64
}

// Validate rejects non-finite and negative unit parameters before they
// are converted to per-slot physics. Without it, a NaN or −Inf spec
// field would silently disable the unit (every guard comparison is false
// for NaN) or default a negative fuel price to the 85 USD/MWh fallback,
// instead of surfacing the configuration error.
func (u UnitSpec) Validate() error {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"CapacityMW", u.CapacityMW},
		{"MinLoadFrac", u.MinLoadFrac},
		{"RampMWPerHour", u.RampMWPerHour},
		{"FuelUSDPerMWh", u.FuelUSDPerMWh},
		{"FuelQuadUSD", u.FuelQuadUSD},
		{"StartupUSD", u.StartupUSD},
		{"CO2KgPerMWh", u.CO2KgPerMWh},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("smartdpss: unit %s is not finite", f.name)
		}
		if f.v < 0 {
			return fmt.Errorf("smartdpss: negative unit %s", f.name)
		}
	}
	if u.MinLoadFrac > 1 {
		return errors.New("smartdpss: unit MinLoadFrac above 1")
	}
	if u.StartupLagSlots < 0 {
		return errors.New("smartdpss: negative unit StartupLagSlots")
	}
	return nil
}

// DefaultOptions mirrors the paper's Sec. VI-A defaults: V = 1, ε = 0.5,
// T = 24 hourly slots, a 2 MW datacenter and a 15-minute UPS.
func DefaultOptions() Options {
	return Options{
		V:                 1.0,
		Epsilon:           0.5,
		T:                 24,
		PeakMW:            2.0,
		BatteryMinutes:    15,
		BatteryMinMinutes: 1,
		PmaxUSD:           150,
	}
}

// slotHours returns the fine-slot duration in hours (default 1).
func (o Options) slotHours() float64 {
	if o.SlotMinutes <= 0 {
		return 1
	}
	return float64(o.SlotMinutes) / 60
}

// plant translates Options into the physical system every layer shares:
// the controller plans against it and the session bills it.
func (o Options) plant() sim.Plant {
	h := o.slotHours()
	p := sim.DefaultPlant()
	p.PmaxUSD = o.PmaxUSD
	p.PgridMWh = o.PeakMW * h
	p.SmaxMWh = 2 * o.PeakMW * h
	// The service cap is a datacenter capability: it scales with the
	// installation (Fig. 10 grows the system while the UPS stays fixed).
	p.SdtMaxMWh = o.PeakMW / 2 * h
	p.Battery = batteryParams(o)
	p.Fleet = fleetParams(o)
	return p
}

// coreParams translates Options into the controller configuration.
func (o Options) coreParams() core.Params {
	return core.Params{
		Plant:   o.plant(),
		V:       o.V,
		Epsilon: o.Epsilon,
		T:       o.T,
		// The arrival cap scales with the installation, like Sdtmax.
		DdtMaxMWh:        o.PeakMW / 2 * o.slotHours(),
		CommitWindow:     o.CommitWindow,
		DisableLongTerm:  o.DisableLongTerm,
		SnapshotPlanning: o.SnapshotPlanning,
	}
}

// baselineConfig translates Options into the baseline configuration.
func (o Options) baselineConfig() baseline.Config {
	return baseline.Config{Plant: o.plant(), T: o.T}
}

// BaselineConfig exposes the options→baseline translation for internal
// consumers that build baseline solvers directly over engine options —
// the geo coupled routing+supply LP constructs one baseline.Config per
// site. The root facade does not re-export it.
func (o Options) BaselineConfig() baseline.Config { return o.baselineConfig() }

func batteryParams(o Options) battery.Params {
	ref := o.PeakMW
	if o.BatteryReferenceMW > 0 {
		ref = o.BatteryReferenceMW
	}
	slotMinutes := o.SlotMinutes
	if slotMinutes <= 0 {
		slotMinutes = 60
	}
	p := battery.SizedSlot(ref, o.BatteryMinutes, o.BatteryMinMinutes, slotMinutes)
	p.MaxOps = o.BatteryMaxOps
	return p
}

// fleetParams translates the fleet options into slot-scaled unit
// parameters, dropping every zero-capacity unit (nil when none is
// left). A configured carbon price folds each unit's emission intensity
// into its linear fuel price, so merit order, commitment and the billed
// fuel cost all internalize emissions.
func fleetParams(o Options) []generator.Params {
	var out []generator.Params
	h := o.slotHours()
	for _, u := range o.Fleet {
		if u.CapacityMW == 0 {
			continue
		}
		if out == nil {
			out = make([]generator.Params, 0, len(o.Fleet))
		}
		fuel := u.FuelUSDPerMWh
		if fuel <= 0 {
			fuel = 85
		}
		fuel += u.CO2KgPerMWh * o.CarbonUSDPerTon / 1000
		out = append(out, generator.Params{
			CapacityMWh: u.CapacityMW * h,
			MinLoadMWh:  u.MinLoadFrac * u.CapacityMW * h,
			// MW/h → MWh per slot: the per-slot power step is RampMW·h,
			// and that power sustained for one slot is another factor h.
			RampMWh:         u.RampMWPerHour * h * h,
			FuelUSDPerMWh:   fuel,
			FuelQuadUSD:     u.FuelQuadUSD,
			StartupUSD:      u.StartupUSD,
			StartupLagSlots: u.StartupLagSlots,
			CO2KgPerMWh:     u.CO2KgPerMWh,
		})
	}
	return out
}

// simConfig translates Options into the engine configuration.
func (o Options) simConfig() sim.Config {
	return sim.Config{
		Plant:              o.plant(),
		PeakChargeUSDPerMW: o.PeakChargeUSDPerMW,
		KeepSeries:         o.KeepSeries,
	}
}

// TraceConfig parameterizes the synthetic January scenario standing in for
// the paper's MIDC solar, NYISO price and Google-cluster workload traces.
type TraceConfig struct {
	// Days is the horizon length (the paper uses 31).
	Days int
	// Seed drives all generators (each gets a derived sub-seed).
	Seed int64
	// SolarCapacityMW is the solar plant size.
	SolarCapacityMW float64
	// WindCapacityMW is the wind farm size (0 disables wind; the paper
	// names both "solar and wind energies" as DPSS renewable sources).
	WindCapacityMW float64
	// PeakMW is the datacenter peak (grid cap for clipping).
	PeakMW float64
	// SlotMinutes is the trace resolution (0 means 60; the paper uses 15
	// or 60 minutes).
	SlotMinutes int
	// StartDayOfYear shifts the season (0 means Jan 1, the paper's month;
	// 172 is late June for summer solar studies).
	StartDayOfYear int
	// PriceScale multiplies both generated GRID price series (long-term
	// and real-time) after generation; 0 or 1 leaves them unchanged. It
	// never touches fuel costs — fuel has its own axis below — so it
	// moves the grid-price level against fixed fuel prices, the axis of
	// the on-site provisioning economics (arXiv:1303.6775): at
	// PriceScale below the fuel/grid break-even the generator is idle
	// capital, above it self-generation displaces the markets.
	PriceScale float64
	// FuelPriceScale is the fuel-side counterpart of PriceScale: the
	// mean level of a per-slot fuel-price multiplier series applied to
	// every generation unit's fuel curve (grid prices are untouched).
	// 0 or 1 with zero FuelVolatility leaves fuel at the configured
	// static price and generates no series, reproducing fuel-trace-free
	// runs exactly.
	FuelPriceScale float64
	// FuelVolatility adds a seeded mean-reverting walk around the
	// FuelPriceScale level (fractional per-slot step, e.g. 0.02), so
	// fuel prices vary over time like the volatile gas markets of
	// arXiv:1308.0585. Zero keeps the multiplier flat.
	FuelVolatility float64
}

// DefaultTraceConfig returns the one-month default scenario. The solar
// plant is sized so that winter-January production covers roughly 15% of
// demand, in line with the visible solar share of the paper's Fig. 5.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{Days: 31, Seed: 1, SolarCapacityMW: 3.0, PeakMW: 2.0}
}

// Traces bundles the five input series of a simulation.
type Traces struct {
	set *trace.Set
	// valid records that set passed trace.Set.Validate and has not been
	// rewritten since, so NewReplaySession need not validate it again.
	// GenerateTraces sets it, Clone and CloneInto copy it, and every
	// method that rewrites the set or hands it out for writing (Set)
	// clears it.
	valid bool
}

// TracesFromSet wraps an existing trace set as engine traces. Internal
// consumers that derive new sets from generated ones — the geo router
// rewrites per-site demand series — use it to re-enter the engine API;
// the set is validated when a session is built over it.
func TracesFromSet(set *trace.Set) *Traces { return &Traces{set: set} }

// Set exposes the underlying trace set for internal consumers that may
// rewrite it. Since the set can then change behind the Traces' back, Set
// drops the validation record: the next session over these traces
// validates them again. The root facade does not re-export it; external
// callers stay behind the Traces methods.
func (t *Traces) Set() *trace.Set {
	t.valid = false
	return t.set
}

// View exposes the underlying trace set for reading and keeps the
// validation record: the geo router reads demand and price series
// through it. The caller must not modify the set; Set is the accessor
// for callers that may.
func (t *Traces) View() *trace.Set { return t.set }

// GenerateTraces builds the synthetic trace set: interactive plus batch
// demand, solar production, and two-timescale prices.
func GenerateTraces(tc TraceConfig) (*Traces, error) {
	if tc.Days <= 0 {
		return nil, errors.New("smartdpss: Days must be positive")
	}
	slotMinutes := tc.SlotMinutes
	if slotMinutes <= 0 {
		slotMinutes = 60
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	wc := workload.Defaults()
	wc.Days = tc.Days
	wc.SlotMinutes = slotMinutes
	wc.PgridMW = tc.PeakMW
	wc.Seed = rng.Int63()
	ds, dt, err := workload.Generate(wc)
	if err != nil {
		return nil, fmt.Errorf("smartdpss: workload: %w", err)
	}
	sc := solar.Defaults()
	sc.Days = tc.Days
	sc.SlotMinutes = slotMinutes
	sc.CapacityMW = tc.SolarCapacityMW
	if tc.StartDayOfYear > 0 {
		sc.StartDayOfYear = tc.StartDayOfYear
	}
	sc.Seed = rng.Int63()
	sun, err := solar.Generate(sc)
	if err != nil {
		return nil, fmt.Errorf("smartdpss: solar: %w", err)
	}
	renewable := sun
	renewable.Name = "renewable"
	if tc.WindCapacityMW > 0 {
		wcfg := wind.Defaults()
		wcfg.Days = tc.Days
		wcfg.SlotMinutes = slotMinutes
		wcfg.CapacityMW = tc.WindCapacityMW
		wcfg.Seed = rng.Int63()
		gusts, err := wind.Generate(wcfg)
		if err != nil {
			return nil, fmt.Errorf("smartdpss: wind: %w", err)
		}
		if _, err := renewable.AddSeries(gusts); err != nil {
			return nil, fmt.Errorf("smartdpss: renewable mix: %w", err)
		}
	}
	pc := pricing.Defaults()
	pc.Days = tc.Days
	pc.SlotMinutes = slotMinutes
	pc.Seed = rng.Int63()
	lt, rt, err := pricing.Generate(pc)
	if err != nil {
		return nil, fmt.Errorf("smartdpss: pricing: %w", err)
	}
	if tc.PriceScale < 0 || math.IsNaN(tc.PriceScale) || math.IsInf(tc.PriceScale, 0) {
		return nil, errors.New("smartdpss: PriceScale must be finite and non-negative")
	}
	if tc.PriceScale > 0 && tc.PriceScale != 1 {
		for _, sr := range []*trace.Series{lt, rt} {
			for i, v := range sr.Values {
				sr.Values[i] = v * tc.PriceScale
			}
		}
	}
	set := &trace.Set{DemandDS: ds, DemandDT: dt, Renewable: renewable, PriceLT: lt, PriceRT: rt}
	// NaN needs explicit rejection in both guards: every comparison below
	// is false for NaN, so a NaN scale would otherwise slip through as "no
	// fuel market configured" and a NaN volatility as "flat multiplier".
	if tc.FuelPriceScale < 0 || math.IsNaN(tc.FuelPriceScale) || math.IsInf(tc.FuelPriceScale, 0) {
		return nil, errors.New("smartdpss: FuelPriceScale must be finite and non-negative")
	}
	if !(tc.FuelVolatility >= 0 && tc.FuelVolatility < 1) {
		return nil, errors.New("smartdpss: FuelVolatility must be in [0, 1)")
	}
	if (tc.FuelPriceScale > 0 && tc.FuelPriceScale != 1) || tc.FuelVolatility > 0 {
		// The fuel seed is drawn last so that configurations without a
		// fuel market consume exactly the pre-fuel-trace seed sequence.
		set.FuelScale = fuelScaleSeries(tc, slotMinutes, ds.Len(), rng.Int63())
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("smartdpss: traces: %w", err)
	}
	return &Traces{set: set, valid: true}, nil
}

// fuelScaleSeries builds the per-slot fuel-price multiplier: a seeded
// mean-reverting walk (reversion 0.05 per slot) around the
// FuelPriceScale level, clipped to stay strictly positive. With zero
// volatility the series is flat at the level — a pure static rescale of
// every unit's fuel curve over time.
func fuelScaleSeries(tc TraceConfig, slotMinutes, slots int, seed int64) *trace.Series {
	level := tc.FuelPriceScale
	if level <= 0 {
		level = 1
	}
	rng := rand.New(rand.NewSource(seed))
	sr := trace.New("fuel_scale", "x", slotMinutes, slots)
	x := 1.0
	for i := range sr.Values {
		sr.Values[i] = level * x
		x += 0.05*(1-x) + tc.FuelVolatility*(2*rng.Float64()-1)
		if x < 0.1 {
			x = 0.1
		}
	}
	return sr
}

// Horizon returns the number of fine slots.
func (t *Traces) Horizon() int { return t.set.Horizon() }

// Clone deep-copies the traces.
func (t *Traces) Clone() *Traces { return &Traces{set: t.set.Clone(), valid: t.valid} }

// CloneInto deep-copies the traces into dst, reusing dst's buffers where
// the shapes allow, and returns dst (freshly allocated when nil). Sweep
// engines recycle one buffer set across many points this way instead of
// paying a full deep copy per point.
func (t *Traces) CloneInto(dst *Traces) *Traces {
	if dst == nil {
		dst = &Traces{}
	}
	dst.set = t.set.CloneInto(dst.set)
	dst.valid = t.valid
	return dst
}

// ScaleSystem multiplies demand and renewables by β (the system expansion
// of Sec. V-C / Fig. 10); prices are unchanged.
func (t *Traces) ScaleSystem(beta float64) *Traces {
	t.valid = false
	t.set.ScaleSystem(beta)
	return t
}

// RenewablePenetration returns Σrenewable / Σdemand (Fig. 8's x-axis).
func (t *Traces) RenewablePenetration() float64 { return t.set.RenewablePenetration() }

// SetPenetration rescales the renewable series to the target penetration.
func (t *Traces) SetPenetration(p float64) error {
	t.valid = false
	return t.set.SetPenetration(p)
}

// ScaleDemandVariation stretches demand around its mean by factor k
// (Fig. 8's demand-variation axis); the mean is preserved up to clipping.
func (t *Traces) ScaleDemandVariation(k float64) error {
	t.valid = false
	return t.set.ScaleDemandVariation(k)
}

// PerturbUniform returns a copy of the traces with every sample of every
// series multiplied by an independent factor drawn uniformly from
// [1−frac, 1+frac], clipping prices to [0, pmax] and energy to
// non-negative. This is the paper's Fig. 9 protocol: the controller makes
// all decisions on (and is evaluated against) the erroneous dataset.
func (t *Traces) PerturbUniform(seed int64, frac, pmax float64) (*Traces, error) {
	if frac < 0 || frac >= 1 {
		return nil, errors.New("smartdpss: perturbation fraction must be in [0, 1)")
	}
	rng := rand.New(rand.NewSource(seed))
	out := t.Clone()
	out.valid = false
	perturb := func(sr *trace.Series, hi float64) {
		for i, v := range sr.Values {
			nv := v * (1 + frac*(2*rng.Float64()-1))
			if nv < 0 {
				nv = 0
			}
			if hi > 0 && nv > hi {
				nv = hi
			}
			sr.Values[i] = nv
		}
	}
	perturb(out.set.DemandDS, 0)
	perturb(out.set.DemandDT, 0)
	perturb(out.set.Renewable, 0)
	perturb(out.set.PriceLT, pmax)
	perturb(out.set.PriceRT, pmax)
	return out, nil
}

// DemandStdDev returns the standard deviation of total demand per slot
// (Fig. 8's demand-variation axis).
func (t *Traces) DemandStdDev() float64 { return t.set.TotalDemand().StdDev() }

// CoolingConfig parameterizes the cooling coupling of ApplyCooling.
type CoolingConfig struct {
	// MeanTempC is the long-run outside temperature (2 = winter site,
	// ~26 = summer chiller regime).
	MeanTempC float64
	// Seed drives the temperature generator.
	Seed int64
	// PgridMW caps the coupled facility demand (0 uses 2 MW).
	PgridMW float64
}

// ApplyCooling couples the demand traces through an outside-temperature
// trace and a PUE curve (the paper's declared cooling-cost future work,
// Sec. IV-C): below the free-cooling threshold the facility runs at the
// base PUE, above it chiller load grows with temperature. It returns the
// average applied PUE.
func (t *Traces) ApplyCooling(cc CoolingConfig) (float64, error) {
	t.valid = false
	tc := thermal.Defaults()
	tc.Days = t.set.Horizon() * t.set.DemandDS.SlotMinutes / (24 * 60)
	if tc.Days <= 0 {
		return 0, errors.New("smartdpss: horizon shorter than one day")
	}
	tc.SlotMinutes = t.set.DemandDS.SlotMinutes
	tc.MeanC = cc.MeanTempC
	if cc.Seed != 0 {
		tc.Seed = cc.Seed
	}
	pgrid := cc.PgridMW
	if pgrid <= 0 {
		pgrid = 2.0
	}
	temps, err := thermal.GenerateTemperature(tc)
	if err != nil {
		return 0, fmt.Errorf("smartdpss: temperature: %w", err)
	}
	slotHours := float64(t.set.DemandDS.SlotMinutes) / 60
	return thermal.ApplyCooling(t.set, temps, tc, pgrid*slotHours)
}

// RenewableNightSplit returns the renewable energy produced at night
// (22:00–06:00) and in total, in MWh — an intermittency-smoothing
// indicator for mixed solar/wind portfolios.
func (t *Traces) RenewableNightSplit() (night, total float64) {
	r := t.set.Renewable
	slotsPerDay := 24 * 60 / r.SlotMinutes
	for i, v := range r.Values {
		total += v
		hour := float64(i%slotsPerDay) * float64(r.SlotMinutes) / 60
		if hour >= 22 || hour < 6 {
			night += v
		}
	}
	return night, total
}

// WriteCSV exports all five series as CSV.
func (t *Traces) WriteCSV(w io.Writer) error {
	s := t.set
	return trace.WriteCSV(w, s.DemandDS, s.DemandDT, s.Renewable, s.PriceLT, s.PriceRT)
}

// SeriesStats summarizes one input series.
type SeriesStats struct {
	Name string
	Unit string
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	Sum  float64
}

// TraceStatistics returns summary statistics for all five input series in
// a fixed order (demand_ds, demand_dt, renewable, price_lt, price_rt).
func TraceStatistics(t *Traces) ([]SeriesStats, error) {
	if t == nil {
		return nil, errors.New("smartdpss: nil traces")
	}
	s := t.set
	out := make([]SeriesStats, 0, 5)
	for _, sr := range []*trace.Series{s.DemandDS, s.DemandDT, s.Renewable, s.PriceLT, s.PriceRT} {
		out = append(out, SeriesStats{
			Name: sr.Name,
			Unit: sr.Unit,
			Mean: sr.Mean(),
			Std:  sr.StdDev(),
			Min:  sr.Min(),
			Max:  sr.Max(),
			Sum:  sr.Sum(),
		})
	}
	return out, nil
}

// Simulate runs the selected policy over the traces and returns its
// report. It is a thin batch loop over a replay Session — batch and
// streaming execution share one code path, so their reports are
// byte-identical by construction.
func Simulate(policy Policy, opts Options, traces *Traces) (*Report, error) {
	s, err := NewReplaySession(policy, opts, traces)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if _, err := s.StepReplay(); err != nil {
			return nil, err
		}
	}
	return s.Finish()
}

// newController instantiates the requested policy.
func newController(policy Policy, opts Options, traces *Traces) (sim.Controller, error) {
	switch policy {
	case PolicySmartDPSS:
		return core.New(opts.coreParams())
	case PolicyImpatient:
		return baseline.NewImpatient(opts.baselineConfig())
	case PolicyLyapunov:
		return baseline.NewLyapunov(opts.baselineConfig(), opts.LyapunovV, opts.LyapunovTheta)
	case PolicyOfflineOptimal:
		return baseline.NewOfflineOptimal(opts.baselineConfig(), traces.set)
	case PolicyOfflineHorizon:
		return baseline.NewOfflineHorizon(opts.baselineConfig(), traces.set)
	case PolicyLookahead:
		window := opts.LookaheadWindow
		if window <= 0 {
			window = opts.T
		}
		return baseline.NewLookahead(opts.baselineConfig(), traces.set, window)
	default:
		return nil, fmt.Errorf("smartdpss: unknown policy %q", policy)
	}
}

// TheoremBounds reports the deterministic bounds of Theorem 2 for the
// given options: the backlog bound Qmax, delay-queue bound Ymax, their sum
// Umax, the worst-case delay λmax (slots) and Vmax.
type TheoremBounds struct {
	QMax      float64
	YMax      float64
	UMax      float64
	LambdaMax int
	VMax      float64
}

// Bounds computes the Theorem 2 bounds for the options.
func Bounds(opts Options) TheoremBounds {
	p := opts.coreParams()
	return TheoremBounds{
		QMax:      p.QMax(),
		YMax:      p.YMax(),
		UMax:      p.UMax(),
		LambdaMax: p.LambdaMax(),
		VMax:      p.VMax(),
	}
}
