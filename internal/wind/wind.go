// Package wind generates synthetic on-site wind production traces.
//
// The paper's DPSS integrates "renewable energy, such as solar and wind
// energies" (Sec. I); its evaluation uses only the MIDC solar trace, so
// wind is the natural first extension. The generator models hub-height
// wind speed as a mean-reverting (Ornstein–Uhlenbeck-like) process with a
// weak diurnal modulation and synoptic-scale weather fronts (a slow
// random walk of the regional mean), then maps speed to power through the
// standard turbine curve: zero below cut-in, cubic between cut-in and
// rated speed, flat at rated output, and a hard cut-out in storms.
//
// Compared to solar, wind is not day-night gated and its autocorrelation
// is weather-scale rather than astronomical — mixing the two (see the
// facade's TraceConfig.WindCapacityMW) smooths the renewable profile,
// which is exactly why operators pair them.
//
// The package owns the wind-speed process and the turbine curve.
// internal/engine is its sole consumer: trace generation merges its
// output with solar into the renewable series of the trace.Set that the
// simulator and policies read.
package wind

import (
	"math"
	"math/rand"

	"github.com/smartdpss/smartdpss/internal/rng"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// Config parameterizes the wind generator: the horizon, the farm size
// and the seed. The site and its turbines are the mid-continental winter
// ones fixed below. Generate trusts it: internal/engine screens every
// trace configuration before any generator runs.
type Config struct {
	// Days is the horizon, trace.SlotsPerDay hourly slots a day.
	Days int
	// CapacityMW is the rated (nameplate) farm output.
	CapacityMW float64
	// Seed drives the deterministic random source.
	Seed int64
}

// A mid-continental winter wind site. They are typed constants, so each
// product with another of them rounds as the same product of variables
// would.
const (
	// meanSpeedMS is the long-run mean hub-height wind speed in m/s.
	meanSpeedMS float64 = 7.5
	// speedStdMS is the standard deviation of the fast speed fluctuations.
	speedStdMS float64 = 1.8
	// cutInMS, ratedMS and cutOutMS define the turbine power curve.
	cutInMS  float64 = 3.0
	ratedMS  float64 = 12.0
	cutOutMS float64 = 25.0
	// frontStdMS scales the slow synoptic random walk of the regional
	// mean (weather fronts passing over days).
	frontStdMS float64 = 0.35
	// diurnalAmp is the relative amplitude of the weak diurnal speed
	// modulation (surface heating; typically small).
	diurnalAmp float64 = 0.08
)

// Generate produces the production series in MWh per slot.
func Generate(c Config) *trace.Series {
	r := rand.New(rng.NewSource(c.Seed))
	n := c.Days * trace.SlotsPerDay
	out := trace.New("wind", "MWh", n)

	front := 0.0         // slow synoptic deviation of the regional mean
	speed := meanSpeedMS // fast mean-reverting speed process
	for i := 0; i < n; i++ {
		hour := float64(i%trace.SlotsPerDay) + 0.5

		// Weather fronts: a bounded random walk updated each slot.
		front += frontStdMS * r.NormFloat64()
		front = clamp(front, -0.5*meanSpeedMS, meanSpeedMS)

		// Fast fluctuations: mean reversion towards the modulated mean.
		target := (meanSpeedMS + front) * (1 + diurnalAmp*math.Sin(2*math.Pi*(hour-15)/24))
		speed += 0.35*(target-speed) + speedStdMS*0.6*r.NormFloat64()
		speed = max(0, speed)

		out.Values[i] = c.CapacityMW * powerCurve(speed)
	}
	return out
}

// powerCurve maps wind speed to the per-unit turbine output.
func powerCurve(speed float64) float64 {
	switch {
	case speed < cutInMS || speed >= cutOutMS:
		return 0
	case speed >= ratedMS:
		return 1
	default:
		// Cubic interpolation between cut-in and rated speeds.
		num := speed*speed*speed - cutInMS*cutInMS*cutInMS
		den := ratedMS*ratedMS*ratedMS - cutInMS*cutInMS*cutInMS
		return num / den
	}
}

func clamp(x, lo, hi float64) float64 { return min(hi, max(lo, x)) }
