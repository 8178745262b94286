// Package pricing generates synthetic two-timescale electricity price
// traces for the smart-grid markets of SmartDPSS (Sec. II-A.1).
//
// The paper uses NYISO locational prices for January 2012 (day-ahead as the
// long-term-ahead market, real-time as the balancing market). This package
// substitutes seeded stochastic processes with the properties that drive
// the algorithm: the long-term price is cheaper in expectation than the
// real-time price (Sec. II-B.2: E[prt] > E[plt], the contract discount for
// upfront payment), both lie in [0, Pmax], the real-time series carries a
// diurnal double peak, mean-reverting noise and occasional heavy-tailed
// spikes, and day-to-day levels wander slowly.
//
// The package owns only the price-process generators and their
// parameters. internal/engine is its sole consumer: trace generation
// calls it once per run, stores the result in a trace.Set, and everything
// downstream (policies, baselines, the simulator) reads prices from that
// set, never from here.
//
// Generate tabulates the diurnal price shape, which depends only on the
// slot of the day, once per call in a table on the stack instead of
// evaluating its three exponentials twice per slot. Each entry is the
// same expression on the same operands as the per-slot evaluation, and
// the random source is drawn in the same order, so the table changes no
// output bit (internal/engine pins every bit of the generated traces).
package pricing

import (
	"math"
	"math/rand"

	"github.com/smartdpss/smartdpss/internal/rng"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// Config parameterizes the price generator: the horizon and the seed.
// The price processes are the NYISO-January-like ones fixed below.
// Generate trusts it: internal/engine screens every trace configuration
// before any generator runs.
type Config struct {
	// Days is the horizon, trace.SlotsPerDay hourly slots a day.
	Days int
	// Seed drives the deterministic random source.
	Seed int64
}

// The NYISO-January-like price processes. They are typed constants, so
// each product with another of them rounds as the same product of
// variables would.
const (
	// baseLT is the mean long-term-ahead price in USD/MWh.
	baseLT float64 = 38
	// rtPremium multiplies the long-term level to set the mean real-time
	// level (above 1, so that E[prt] > E[plt]).
	rtPremium float64 = 1.15
	// pmax is the regulatory price cap (paper: upper bound on both
	// markets).
	pmax float64 = 150
	// pFloor is the lowest admissible price.
	pFloor float64 = 5
	// diurnalAmp is the relative amplitude of the real-time diurnal shape.
	diurnalAmp float64 = 0.25
	// noiseSigma is the per-slot mean-reverting noise scale (USD/MWh).
	noiseSigma float64 = 4.0
	// spikeProb is the per-slot probability of a real-time price spike.
	spikeProb float64 = 0.012
	// spikeFactor is the mean multiplier applied during a spike.
	spikeFactor float64 = 2.2
)

// Generate produces the long-term and real-time price series in USD/MWh at
// fine-slot resolution. The long-term series is piecewise smooth so that
// sampling it at any coarse interval start (any T) is meaningful.
func Generate(c Config) (lt, rt *trace.Series) {
	r := rand.New(rng.NewSource(c.Seed))
	const slotsPerDay = trace.SlotsPerDay
	n := c.Days * slotsPerDay
	lt = trace.New("price_lt", "USD/MWh", n)
	rt = trace.New("price_rt", "USD/MWh", n)

	// Daily long-term level: slow AR(1) walk around baseLT with a weekly
	// shape (weekdays pricier than weekends).
	dayLevel := make([]float64, c.Days)
	level := baseLT
	for d := range dayLevel {
		level += 0.3*(baseLT-level) + 0.06*baseLT*r.NormFloat64()
		weekly := 1.0
		switch d % 7 {
		case 5, 6: // weekend
			weekly = 0.9
		}
		dayLevel[d] = clamp(level*weekly, pFloor, 0.9*pmax)
	}

	// The diurnal shape, once per slot of the day (see the package doc).
	var shape [slotsPerDay]float64
	for s := range slotsPerDay {
		shape[s] = diurnalShape(float64(s) + 0.5)
	}

	noise := 0.0 // mean-reverting real-time deviation
	spikeLeft := 0
	spikeMul := 1.0
	for day, dl := range dayLevel {
		for s := range slotsPerDay {
			i := day*slotsPerDay + s

			// Long-term price: the day's level with a faint diurnal tilt so
			// that intraday coarse intervals (T < 24h) still see structure.
			ltP := dl * (1 + 0.05*shape[s])
			lt.Values[i] = clamp(ltP, pFloor, pmax)

			// Real-time price: premium level, stronger diurnal shape,
			// mean-reverting noise and occasional multiplicative spikes.
			noise += -0.5*noise + noiseSigma*r.NormFloat64()
			if spikeLeft > 0 {
				spikeLeft--
			} else if r.Float64() < spikeProb {
				spikeLeft = 1 + r.Intn(3)
				spikeMul = 1 + (spikeFactor-1)*(0.5+r.Float64())
			}
			mul := 1.0
			if spikeLeft > 0 {
				mul = spikeMul
			}
			rtP := dl*rtPremium*(1+diurnalAmp*shape[s])*mul + noise
			rt.Values[i] = clamp(rtP, pFloor, pmax)
		}
	}
	return lt, rt
}

// diurnalShape returns a smooth [-1, 1] shape with morning and evening
// peaks typical of winter load-following prices.
func diurnalShape(hour float64) float64 {
	morning := math.Exp(-sq(hour-8.5) / (2 * sq(2.0)))
	evening := math.Exp(-sq(hour-18.5) / (2 * sq(2.5)))
	night := math.Exp(-sq(hour-3.5) / (2 * sq(3.0)))
	return clamp(0.9*morning+1.1*evening-0.8*night, -1, 1)
}

func sq(x float64) float64 { return x * x }

func clamp(x, lo, hi float64) float64 { return min(hi, max(lo, x)) }
