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
	"github.com/smartdpss/smartdpss/internal/rng"
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
	// T is the number of hourly fine slots per coarse slot (paper
	// Fig. 6(c,d)).
	T int
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
	// order. A unit of zero capacity is dropped, so a Fleet that is
	// empty or holds only such units is exactly generation-free.
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
}

// UnitSpec describes one unit of an on-site generation fleet in
// datacenter-level units (MW and fractions; the engine converts them to
// per-slot MWh).
type UnitSpec struct {
	// CapacityMW is the unit's nameplate power. A unit whose capacity
	// is zero is dropped before any layer sees it, so Report.GenUnits
	// lists only the units with capacity, in Fleet order.
	CapacityMW float64
	// MinLoadFrac is the minimum stable load as a fraction of
	// CapacityMW.
	MinLoadFrac float64
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

// plant translates Options into the physical system every layer shares:
// the controller plans against it and the session bills it. A slot is
// an hour, so each power cap in MW is its slot's energy cap in MWh.
func (o Options) plant() sim.Plant {
	p := sim.DefaultPlant()
	p.PmaxUSD = o.PmaxUSD
	p.PgridMWh = o.PeakMW
	p.SmaxMWh = 2 * o.PeakMW
	// The service cap is a datacenter capability: it scales with the
	// installation (Fig. 10 grows the system while the UPS stays fixed).
	p.SdtMaxMWh = o.PeakMW / 2
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
		DdtMaxMWh:        o.PeakMW / 2,
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
	p := battery.Sized(ref, o.BatteryMinutes, o.BatteryMinMinutes)
	p.MaxOps = o.BatteryMaxOps
	return p
}

// fleetParams translates the fleet options into per-slot unit
// parameters, dropping every unit of zero capacity (nil when none is
// left). A configured carbon price folds each unit's emission intensity
// into its linear fuel price, so merit order, commitment and the billed
// fuel cost all internalize emissions.
func fleetParams(o Options) []generator.Params {
	var out []generator.Params
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
			CapacityMWh:     u.CapacityMW,
			MinLoadMWh:      u.MinLoadFrac * u.CapacityMW,
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
	}
}

// TraceConfig parameterizes the synthetic January scenario standing in for
// the paper's MIDC solar, NYISO price and Google-cluster workload traces.
// Every trace starts on January 1, as the paper's month does, and has
// hourly slots, as the paper's evaluation does; the models' parameters
// are their generators' constants, so a TraceConfig sets only the
// horizon, the seed and the sizes.
type TraceConfig struct {
	// Days is the horizon length (the paper uses 31), 24 hourly slots a
	// day.
	Days int
	// Seed drives all generators (each gets a derived sub-seed).
	Seed int64
	// SolarCapacityMW is the solar plant size.
	SolarCapacityMW float64
	// WindCapacityMW is the wind farm size (0 disables wind; the paper
	// names both "solar and wind energies" as DPSS renewable sources). A
	// negative size is an error.
	WindCapacityMW float64
	// PeakMW is the datacenter peak (grid cap for clipping). It must be
	// positive.
	PeakMW float64
	// PriceScale multiplies both generated GRID price series (long-term
	// and real-time) after generation; 0 or 1 leaves them unchanged. It
	// never touches fuel costs — each generation unit burns fuel at its
	// configured curve — so it moves the grid-price level against fixed
	// fuel prices, the axis of the on-site provisioning economics
	// (arXiv:1303.6775): at PriceScale below the fuel/grid break-even the
	// generator is idle capital, above it self-generation displaces the
	// markets.
	PriceScale float64
	// Cooling, when non-nil, couples the demand through the cooling
	// model (the paper's cooling-cost future work, Sec. IV-C); nil means
	// no cooling.
	Cooling *CoolingConfig
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
	// pue is the average PUE cooling applied at generation, 1 for
	// uncooled traces.
	pue float64
}

// AveragePUE returns the average PUE that TraceConfig.Cooling applied
// to the demand at generation, and 1 for traces generated without
// cooling.
func (t *Traces) AveragePUE() float64 { return t.pue }

// WithDemandDS returns traces whose delay-sensitive demand samples are
// values, kept without a copy, and whose other four series are t's,
// shared. trace.Set.WithDemandDS checks the new series against trace
// validation's rules, so only that series is read and the result keeps
// t's record of having passed validation: a session over it validates
// nothing again. It is a function, not a method, so that the root
// package, which aliases Traces, does not export it; the geo router
// swaps each site's routed demand in through it.
func WithDemandDS(t *Traces, values []float64) (*Traces, error) {
	home := t.set.DemandDS
	set, err := t.set.WithDemandDS(&trace.Series{Name: home.Name, Unit: home.Unit, Values: values})
	if err != nil {
		return nil, err
	}
	return &Traces{set: set, valid: t.valid, pue: t.pue}, nil
}

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
func GenerateTraces(tc TraceConfig) (*Traces, error) { return GenerateTracesWith(tc, nil) }

// SolarEnvelope computes the clear-sky envelope of tc's solar trace. It
// depends only on tc.Days, so one envelope serves every configuration
// that shares it.
func SolarEnvelope(tc TraceConfig) (*solar.Envelope, error) {
	if err := validateTraceConfig(tc); err != nil {
		return nil, err
	}
	return solar.NewEnvelope(tc.Days), nil
}

// GenerateTracesWith is GenerateTraces over a shared clear-sky envelope:
// env must be SolarEnvelope of a configuration with tc's Days. A nil env
// computes tc's own, which makes it GenerateTraces. The traces are the
// same bits either way.
func GenerateTracesWith(tc TraceConfig, env *solar.Envelope) (*Traces, error) {
	if err := validateTraceConfig(tc); err != nil {
		return nil, err
	}
	r := rand.New(rng.NewSource(tc.Seed))
	ds, dt := workload.Generate(workload.Config{Days: tc.Days, PgridMW: tc.PeakMW, Seed: r.Int63()})
	sun, err := solar.GenerateWith(solar.Config{Days: tc.Days, CapacityMW: tc.SolarCapacityMW, Seed: r.Int63()}, env)
	if err != nil {
		return nil, fmt.Errorf("smartdpss: %w", err)
	}
	renewable := sun
	renewable.Name = "renewable"
	if tc.WindCapacityMW != 0 {
		gusts := wind.Generate(wind.Config{Days: tc.Days, CapacityMW: tc.WindCapacityMW, Seed: r.Int63()})
		if _, err := renewable.AddSeries(gusts); err != nil {
			return nil, fmt.Errorf("smartdpss: renewable mix: %w", err)
		}
	}
	lt, rt := pricing.Generate(pricing.Config{Days: tc.Days, Seed: r.Int63()})
	if tc.PriceScale > 0 && tc.PriceScale != 1 {
		for _, sr := range []*trace.Series{lt, rt} {
			for i, v := range sr.Values {
				sr.Values[i] = v * tc.PriceScale
			}
		}
	}
	set := &trace.Set{DemandDS: ds, DemandDT: dt, Renewable: renewable, PriceLT: lt, PriceRT: rt}
	pue := 1.0
	if cc := tc.Cooling; cc != nil {
		seed := cc.Seed
		if seed == 0 {
			seed = coolingSeed
		}
		temps := thermal.GenerateTemperature(thermal.Config{Days: tc.Days, MeanC: cc.MeanTempC, Seed: seed})
		if pue, err = thermal.ApplyCooling(set, temps, tc.PeakMW); err != nil {
			return nil, fmt.Errorf("smartdpss: %w", err)
		}
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("smartdpss: traces: %w", err)
	}
	return &Traces{set: set, valid: true, pue: pue}, nil
}

// validateTraceConfig is the one screen of a TraceConfig, run before any
// draw. The generators trust what it passes: a comparison is false for
// NaN, and an infinite size would only surface as a non-finite sample
// after generation, so every float must be finite before its sign is
// read.
func validateTraceConfig(tc TraceConfig) error {
	if tc.Days <= 0 {
		return errors.New("smartdpss: Days must be positive")
	}
	fields := [...]struct {
		name string
		v    float64
	}{
		{"PeakMW", tc.PeakMW},
		{"SolarCapacityMW", tc.SolarCapacityMW},
		{"WindCapacityMW", tc.WindCapacityMW},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("smartdpss: %s is not finite", f.name)
		}
	}
	switch {
	case tc.PeakMW <= 0:
		return errors.New("smartdpss: PeakMW must be positive")
	case tc.SolarCapacityMW < 0:
		return errors.New("smartdpss: SolarCapacityMW must not be negative")
	case tc.WindCapacityMW < 0:
		return errors.New("smartdpss: WindCapacityMW must not be negative")
	case tc.PriceScale < 0 || math.IsNaN(tc.PriceScale) || math.IsInf(tc.PriceScale, 0):
		return errors.New("smartdpss: PriceScale must be finite and non-negative")
	case tc.Cooling != nil && (math.IsNaN(tc.Cooling.MeanTempC) || math.IsInf(tc.Cooling.MeanTempC, 0)):
		return errors.New("smartdpss: Cooling.MeanTempC is not finite")
	}
	return nil
}

// Horizon returns the number of fine slots.
func (t *Traces) Horizon() int { return t.set.Horizon() }

// Clone deep-copies the traces.
func (t *Traces) Clone() *Traces { return &Traces{set: t.set.Clone(), valid: t.valid, pue: t.pue} }

// CloneInto deep-copies the traces into dst, reusing dst's buffers where
// the shapes allow, and returns dst (freshly allocated when nil). Sweep
// engines recycle one buffer set across many points this way instead of
// paying a full deep copy per point.
func (t *Traces) CloneInto(dst *Traces) *Traces {
	if dst == nil {
		dst = &Traces{}
	}
	dst.set = t.set.CloneInto(dst.set)
	dst.valid, dst.pue = t.valid, t.pue
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
	r := rand.New(rng.NewSource(seed))
	out := t.Clone()
	out.valid = false
	perturb := func(sr *trace.Series, hi float64) {
		for i, v := range sr.Values {
			nv := v * (1 + frac*(2*r.Float64()-1))
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

// CoolingConfig parameterizes the cooling coupling of TraceConfig.Cooling:
// the climate and the weather's seed. The PUE curve is the thermal
// model's. Generation couples the demand through an outside-temperature
// trace over the traces' own horizon: below the free-cooling threshold
// the facility runs at the base PUE, above it chiller load grows with
// temperature, and the coupled demand is clipped at the grid cap,
// TraceConfig.PeakMW. Traces.AveragePUE returns the average PUE applied.
type CoolingConfig struct {
	// MeanTempC is the long-run outside temperature (2 = winter site,
	// ~26 = summer chiller regime).
	MeanTempC float64
	// Seed drives the temperature generator (0 uses seed 8).
	Seed int64
}

// coolingSeed seeds the temperature generator when CoolingConfig.Seed
// is 0.
const coolingSeed = 8

// RenewableNightSplit returns the renewable energy produced in slots
// starting at night (22:00–06:00) and in total, in MWh — an
// intermittency-smoothing indicator for mixed solar/wind portfolios.
func (t *Traces) RenewableNightSplit() (night, total float64) {
	for i, v := range t.set.Renewable.Values {
		total += v
		if h := i % trace.SlotsPerDay; h >= 22 || h < 6 {
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
		if _, err := s.replay(); err != nil {
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
	QMax float64
	YMax float64
	UMax float64
	// LambdaMax is λmax in slots, saturated at math.MaxInt when the
	// bound does not fit an int (a tiny Epsilon, such as 1e-18).
	LambdaMax int
	VMax      float64
}

// Bounds computes the Theorem 2 bounds for the options. It refuses
// exactly the options a SmartDPSS session refuses, with the session's
// ErrInvalidOptions error: the bounds of a controller that cannot be
// built bound nothing.
func Bounds(opts Options) (TheoremBounds, error) {
	if _, err := NewSession(PolicySmartDPSS, opts, 1); err != nil {
		return TheoremBounds{}, err
	}
	p := opts.coreParams()
	return TheoremBounds{
		QMax:      p.QMax(),
		YMax:      p.YMax(),
		UMax:      p.UMax(),
		LambdaMax: p.LambdaMax(),
		VMax:      p.VMax(),
	}, nil
}
