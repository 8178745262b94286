// Package thermal models datacenter cooling overhead, the paper's second
// declared future-work item ("Incorporating cooling cost and power peaks
// management is part of our future work", Sec. IV-C).
//
// The model has two parts. A synthetic outside-temperature trace combines
// a diurnal cycle with slow weather fronts (mean-reverting noise). A PUE
// (power usage effectiveness) curve then maps temperature to facility
// overhead: below the free-cooling threshold the facility runs economizers
// at a flat base PUE; above it, chiller load grows linearly with
// temperature. Coupling a demand trace through the curve turns IT power
// into facility power — raising both the level and the variance of the
// demand SmartDPSS must serve, since hot afternoons coincide with the
// interactive peak.
//
// The package owns the temperature process and the PUE curve.
// internal/engine is its sole consumer: when a trace configuration sets
// cooling, generation draws the temperature trace over the demand's
// horizon and maps the demand through the curve, clipped at the
// configuration's grid cap, so the simulator and policies only ever see
// the already-inflated facility demand.
package thermal

import (
	"errors"
	"math"
	"math/rand"

	"github.com/smartdpss/smartdpss/internal/rng"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// Config parameterizes the temperature generator: the horizon, the mean
// temperature and the seed. The weather's swings and the PUE curve
// are the constants below. GenerateTemperature trusts it:
// internal/engine screens every trace configuration before any generator
// runs.
type Config struct {
	// Days is the horizon, trace.SlotsPerDay hourly slots a day.
	Days int
	// MeanC is the long-run mean outside temperature in °C.
	MeanC float64
	// Seed drives the deterministic random source.
	Seed int64
}

// The continental weather around the mean, and the facility's PUE curve.
// They are typed constants, so each product with another of them rounds
// as the same product of variables would.
const (
	// diurnalAmpC is the half-amplitude of the day/night swing in °C.
	diurnalAmpC float64 = 5.0
	// weatherStdC scales the slow mean-reverting weather deviation.
	weatherStdC float64 = 3.0
	// freeCoolingC is the threshold below which economizers carry the
	// whole cooling load.
	freeCoolingC float64 = 18.0
	// basePUE is the facility overhead under free cooling.
	basePUE float64 = 1.12
	// pueSlopePerC is the PUE increase per °C above the threshold.
	pueSlopePerC float64 = 0.02
	// maxPUE caps the curve (chillers at full load).
	maxPUE float64 = 1.6
)

// GenerateTemperature produces the outside-temperature series in °C.
func GenerateTemperature(c Config) *trace.Series {
	r := rand.New(rng.NewSource(c.Seed))
	n := c.Days * trace.SlotsPerDay
	out := trace.New("temperature", "C", n)

	weather := 0.0
	for i := 0; i < n; i++ {
		hour := float64(i%trace.SlotsPerDay) + 0.5
		// Coldest around 5am, warmest mid-afternoon.
		diurnal := diurnalAmpC * math.Sin(2*math.Pi*(hour-11)/24)
		weather += 0.05*(0-weather) + 0.3*weatherStdC*r.NormFloat64()
		out.Values[i] = c.MeanC + diurnal + weather
	}
	return out
}

// PUE maps an outside temperature to the facility power usage
// effectiveness: basePUE up to the free-cooling threshold, then rising
// by pueSlopePerC per °C up to maxPUE.
func PUE(tempC float64) float64 {
	if tempC <= freeCoolingC {
		return basePUE
	}
	return math.Min(maxPUE, basePUE+pueSlopePerC*(tempC-freeCoolingC))
}

// ApplyCooling scales both demand classes of the set by the PUE of the
// given temperature trace, slot by slot, clipping the combined demand at
// pgridMWh (facility power may not exceed the grid connection). It
// returns the average applied PUE. The set's demand series must be
// present; the caller validates the set afterwards.
//
// Note: temperature values below any physically sensible range are used
// as-is.
func ApplyCooling(set *trace.Set, temps *trace.Series, pgridMWh float64) (float64, error) {
	if temps.Len() != set.Horizon() {
		return 0, errors.New("thermal: temperature trace length mismatch")
	}
	if pgridMWh <= 0 {
		return 0, errors.New("thermal: pgridMWh must be positive")
	}
	sum := 0.0
	for i := 0; i < set.Horizon(); i++ {
		pue := PUE(temps.At(i))
		sum += pue
		set.DemandDS.Values[i] *= pue
		set.DemandDT.Values[i] *= pue
		if over := set.DemandDS.Values[i] + set.DemandDT.Values[i] - pgridMWh; over > 0 {
			set.DemandDT.Values[i] = math.Max(0, set.DemandDT.Values[i]-over)
			if rem := set.DemandDS.Values[i] + set.DemandDT.Values[i] - pgridMWh; rem > 0 {
				set.DemandDS.Values[i] -= rem
			}
		}
	}
	return sum / float64(set.Horizon()), nil
}
