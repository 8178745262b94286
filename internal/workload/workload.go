// Package workload generates synthetic datacenter power-demand traces with
// the two demand classes of SmartDPSS (Sec. II-A.2).
//
// The paper uses a Google cluster trace (following reference [19]):
// delay-sensitive Websearch/Webmail services plus delay-tolerant MapReduce
// batch work, scaled to the modelled datacenter "by removing demand peaks
// above Pgrid". This package substitutes a seeded generator:
//
//   - Delay-sensitive demand follows a diurnal double-hump interactive
//     curve with weekday/weekend modulation, multiplicative AR(1) noise and
//     occasional flash crowds.
//   - Delay-tolerant demand is a clustered batch-arrival process: jobs of
//     random total energy spread over a random duration, submitted in
//     bursts, bounded per slot by ddtMax (the paper's Ddtmax).
//
// The pair is non-stationary and bursty — the "arbitrary demand" regime the
// algorithm is designed for — and the combined demand is clipped at Pgrid
// exactly as in the paper's preprocessing.
//
// The package owns the demand generators and their parameters.
// internal/engine is its sole consumer: trace generation materializes the
// two demand series into a trace.Set that the simulator and every policy
// read from.
//
// Generate tabulates the model's pure diurnal terms — the interactive
// shape at each slot midpoint, the batch arrival rate λ and Knuth's
// Poisson threshold exp(−λ) — once per slot of the day, in a table on
// the stack, instead of re-evaluating their exponentials every slot.
// Each entry is the same expression on the same operands as the
// per-slot evaluation, and the random source is drawn in the same
// order, so the tables change no output bit (internal/engine pins every
// bit of the generated traces).
package workload

import (
	"math"
	"math/rand"

	"github.com/smartdpss/smartdpss/internal/rng"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// Config parameterizes the demand generator: the horizon, the grid cap
// and the seed. The model itself is the paper-like scenario's, fixed
// below. Generate trusts it: internal/engine screens every trace
// configuration before any generator runs.
type Config struct {
	// Days is the horizon, trace.SlotsPerDay hourly slots a day.
	Days int
	// PgridMW caps the combined demand (peaks above are clipped, matching
	// the paper's trace preprocessing).
	PgridMW float64
	// Seed drives the deterministic random source.
	Seed int64
}

// The demand model of the paper-like scenario: roughly two-thirds
// interactive and one-third batch load. They are typed constants, so each
// product with another of them rounds as the same product of variables
// would.
const (
	// interactivePeakMW is the peak of the diurnal delay-sensitive curve.
	interactivePeakMW float64 = 1.3
	// interactiveBase is the overnight floor as a fraction of the peak.
	interactiveBase float64 = 0.45
	// batchMeanMW is the long-run average delay-tolerant power.
	batchMeanMW float64 = 0.45
	// ddtMax bounds delay-tolerant arrivals per slot in MWh
	// (paper: 0 ≤ ddt(τ) ≤ Ddtmax).
	ddtMax float64 = 1.0
	// weekendFactor scales interactive demand on weekends.
	weekendFactor float64 = 0.8
	// flashProb is the per-slot probability that a flash crowd starts.
	flashProb float64 = 0.01
	// noiseSigma is the relative AR(1) noise scale for interactive demand.
	noiseSigma float64 = 0.06
)

// Generate produces the delay-sensitive and delay-tolerant demand series in
// MWh per slot.
func Generate(c Config) (ds, dt *trace.Series) {
	r := rand.New(rng.NewSource(c.Seed))
	const slotsPerDay = trace.SlotsPerDay
	n := c.Days * slotsPerDay
	ds = trace.New("demand_ds", "MWh", n)
	dt = trace.New("demand_dt", "MWh", n)

	// Jobs arrive in bursts; each job deposits energy over several slots.
	// Expected arrivals are tuned so the long-run mean matches batchMeanMW.
	meanJobMWh := 1.5 // average total energy per job
	jobsPerSlot := batchMeanMW / meanJobMWh

	// The diurnal terms, once per slot of the day (see the package doc).
	var terms [slotsPerDay]slotTerms
	for s := range slotsPerDay {
		hour := float64(s) + 0.5
		shape := interactiveShape(hour) // in [0, 1]
		// Batch submissions skew towards working hours.
		rate := jobsPerSlot * (0.6 + 0.8*shape)
		terms[s] = slotTerms{shape: shape, rate: rate, expNegRate: math.Exp(-rate)}
	}

	// --- Delay-sensitive interactive curve ---
	noise := 0.0
	flashLeft := 0
	flashMul := 1.0
	for day := range c.Days {
		for s := range slotsPerDay {
			level := interactivePeakMW * (interactiveBase + (1-interactiveBase)*terms[s].shape)
			if day%7 == 5 || day%7 == 6 {
				level *= weekendFactor
			}
			noise += -0.4*noise + noiseSigma*r.NormFloat64()
			if flashLeft > 0 {
				flashLeft--
			} else if r.Float64() < flashProb {
				flashLeft = 2 + r.Intn(4)
				flashMul = 1.3 + 0.7*r.Float64()
			}
			mul := 1.0
			if flashLeft > 0 {
				mul = flashMul
			}
			powerMW := max(0, level*(1+noise)*mul)
			ds.Values[day*slotsPerDay+s] = min(powerMW, c.PgridMW)
		}
	}

	// --- Delay-tolerant batch arrivals ---
	for i := 0; i < n; i++ {
		term := &terms[i%slotsPerDay]
		for j := poisson(r, term.rate, term.expNegRate); j > 0; j-- {
			energy := meanJobMWh * (0.4 + 1.2*r.Float64())
			duration := 1 + r.Intn(4)
			per := energy / float64(duration)
			for k := 0; k < duration && i+k < n; k++ {
				dt.Values[i+k] += per
			}
		}
	}
	for i := range dt.Values {
		dt.Values[i] = min(dt.Values[i], ddtMax)
	}

	// Clip combined demand at Pgrid (the paper removes peaks above Pgrid).
	budget := c.PgridMW
	for i := 0; i < n; i++ {
		if over := ds.Values[i] + dt.Values[i] - budget; over > 0 {
			dt.Values[i] = max(0, dt.Values[i]-over)
			if ds.Values[i]+dt.Values[i] > budget {
				ds.Values[i] = budget - dt.Values[i]
			}
		}
	}
	return ds, dt
}

// slotTerms are the demand model's pure functions of the slot of the day.
type slotTerms struct {
	shape      float64 // interactiveShape at the slot midpoint
	rate       float64 // expected batch job submissions λ
	expNegRate float64 // exp(−λ), the threshold of Knuth's Poisson draw
}

// interactiveShape is a smooth [0, 1] diurnal curve with a midday plateau
// and evening peak, lowest around 4am.
func interactiveShape(hour float64) float64 {
	midday := math.Exp(-sq(hour-14) / (2 * sq(3.5)))
	evening := math.Exp(-sq(hour-20) / (2 * sq(1.8)))
	v := 0.85*midday + 0.55*evening
	return min(1, v)
}

// poisson draws a Poisson variate via Knuth's method; adequate for the
// small rates used here. l is exp(−lambda), which the caller tabulates.
func poisson(r *rand.Rand, lambda, l float64) int {
	if lambda <= 0 {
		return 0
	}
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k // guard against pathological rates
		}
	}
}

func sq(x float64) float64 { return x * x }
