// Package solar generates synthetic on-site solar production traces.
//
// The paper drives its evaluation with the NREL MIDC meteorological trace
// for the central United States, January 1–31, 2012. That dataset is not
// redistributable here, so this package substitutes a physically grounded
// generator: a clear-sky irradiance model from solar geometry (declination,
// hour angle, elevation, and an air-mass transmission term) modulated by a
// two-state Markov weather chain with AR(1) cloud attenuation. The
// substitute reproduces the trace properties SmartDPSS is sensitive to —
// strict day/night intermittency, short winter days, day-to-day variability
// and hour-scale autocorrelation: the geometry zeroes every slot with the
// sun below the horizon and shortens the days of a January at 39°N, and
// the weather chain's states last hours to days (on average 12.5 clear
// hours and about 8 cloudy ones) while the cloud attenuation reverts
// towards its state's level slot by slot.
//
// The package owns the irradiance model and its weather chain.
// internal/engine is its consumer (internal/geo only hands engine's
// envelopes back to it): trace generation scales the output by the
// configured capacity and merges it with wind into the renewable series
// of the trace.Set that everything downstream reads.
//
// Generation has two parts. The clear-sky Envelope is the solar
// geometry alone: it depends only on the number of days, so a fleet of
// sites that agree on it computes it once and shares it (internal/geo
// does). The weather chain then scales the envelope slot by slot with
// its own seed.
// NewEnvelope evaluates each pure term of the geometry as rarely as it
// changes: the latitude's sine and cosine once per envelope, the
// declination's once per day, and the hour angle's cosine once per slot
// of the day, in a table on the stack. Generate and GenerateWith read
// one envelope through one code path, whether computed for the call or
// shared, and the weather chain draws the random source in the same
// order either way, so sharing changes no output bit (internal/engine
// pins every bit of the generated traces).
package solar

import (
	"errors"
	"math"
	"math/rand"

	"github.com/smartdpss/smartdpss/internal/rng"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// Config parameterizes the generator: the horizon, the plant size and
// the seed. The site, its season and its weather are the paper-like
// January central-US ones fixed below. Generate trusts it:
// internal/engine screens every trace configuration before any generator
// runs.
type Config struct {
	// Days is the horizon, trace.SlotsPerDay hourly slots a day.
	Days int
	// CapacityMW is the plant nameplate capacity: output at 1000 W/m²
	// irradiance.
	CapacityMW float64
	// Seed drives the deterministic random source.
	Seed int64
}

// The paper-like January central-US site. They are typed constants, so
// each product with another of them rounds as the same product of
// variables would.
const (
	// latitudeDeg is the site latitude in degrees (positive north).
	latitudeDeg float64 = 39.0
	// startDayOfYear is the first simulated day: January 1, as in the
	// paper's MIDC month.
	startDayOfYear int = 1
	// performanceRatio lumps inverter/temperature/soiling losses.
	performanceRatio float64 = 0.85
	// pClearToCloudy and pCloudyToClear are the per-hour Markov
	// transition probabilities of the weather chain.
	pClearToCloudy float64 = 0.08
	pCloudyToClear float64 = 0.12
	// cloudyAttenuation is the mean output fraction under cloud cover.
	cloudyAttenuation float64 = 0.30
)

// Envelope is the clear-sky irradiance of every slot of a trace, in
// W/m²: Generate's solar geometry without its weather chain. It depends
// only on the number of days, so generators whose configurations share
// it can share one through GenerateWith. It is read-only once built, so
// concurrent generators may share it.
type Envelope struct {
	days       int
	irradiance []float64 // W/m², one per slot
}

// NewEnvelope computes the clear-sky envelope of the given number of
// days.
func NewEnvelope(days int) *Envelope {
	e := newEnvelope(days)
	return &e
}

// newEnvelope computes the envelope of the given number of days, each
// term of the geometry as rarely as it changes (see the package doc). It
// returns the value, so Generate keeps its own envelope on the stack.
func newEnvelope(days int) Envelope {
	const slotsPerDay = trace.SlotsPerDay
	e := Envelope{days: days, irradiance: make([]float64, days*slotsPerDay)}
	sinLat, cosLat := latitudeTerms(latitudeDeg)
	var cosHourAngle [slotsPerDay]float64
	for s := range slotsPerDay {
		cosHourAngle[s] = math.Cos(hourAngle(float64(s) + 0.5)) // slot midpoint
	}
	for d := range days {
		sinDecl, cosDecl := declinationTerms(startDayOfYear + d)
		day := e.irradiance[d*slotsPerDay : (d+1)*slotsPerDay]
		for s := range day {
			day[s] = clearSkyIrradiance(sinLat*sinDecl + cosLat*cosDecl*cosHourAngle[s])
		}
	}
	return e
}

// Generate produces the production series in MWh per slot.
func Generate(c Config) (*trace.Series, error) { return GenerateWith(c, nil) }

// GenerateWith is Generate over a shared clear-sky envelope: env must
// come from NewEnvelope of c's days, and any other envelope is an error.
// A nil env computes c's own, which makes it Generate. The series is the
// same bits either way.
func GenerateWith(c Config, env *Envelope) (*trace.Series, error) {
	if env == nil {
		own := newEnvelope(c.Days)
		env = &own
	} else if env.days != c.Days {
		return nil, errors.New("solar: envelope computed for another horizon")
	}
	r := rand.New(rng.NewSource(c.Seed))
	out := trace.New("solar", "MWh", len(env.irradiance))

	cloudy := r.Float64() < 0.4 // initial weather state
	atten := 1.0                // AR(1) attenuation level
	for i, irr := range env.irradiance {
		// Weather chain steps once per hourly slot at its per-hour rates.
		pFlip := pClearToCloudy
		if cloudy {
			pFlip = pCloudyToClear
		}
		if r.Float64() < pFlip {
			cloudy = !cloudy
		}
		target := 1.0
		if cloudy {
			target = cloudyAttenuation
		}
		// Mean-reverting attenuation with small noise, bounded to [0.05, 1].
		atten += 0.45*(target-atten) + 0.05*r.NormFloat64()
		atten = min(1, max(0.05, atten))

		powerMW := c.CapacityMW * performanceRatio * (irr / 1000.0) * atten
		out.Values[i] = max(0, powerMW)
	}
	return out, nil
}

// latitudeTerms returns the sine and cosine of the site latitude given
// in degrees.
func latitudeTerms(latDeg float64) (sin, cos float64) {
	latRad := latDeg * math.Pi / 180
	return math.Sin(latRad), math.Cos(latRad)
}

// declinationTerms returns the sine and cosine of the solar declination
// on the given day of the year (Cooper's formula).
func declinationTerms(dayOfYear int) (sin, cos float64) {
	declRad := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*float64(284+dayOfYear)/365)
	return math.Sin(declRad), math.Cos(declRad)
}

// hourAngle returns the hour angle in radians of the local solar hour.
func hourAngle(hour float64) float64 { return (hour - 12) * 15 * math.Pi / 180 }

// clearSkyIrradiance returns the clear-sky global horizontal irradiance
// in W/m² for the sine of the sun's elevation,
// sin(lat)·sin(decl) + cos(lat)·cos(decl)·cos(hour angle).
func clearSkyIrradiance(sinElev float64) float64 {
	const solarConstant = 1361.0 // W/m²
	if sinElev <= 0 {
		return 0 // sun below the horizon
	}
	// Kasten–Young style air-mass attenuation, simplified.
	airMass := 1 / max(sinElev, 0.01)
	transmission := math.Pow(0.7, math.Pow(airMass, 0.678))
	return solarConstant * sinElev * transmission
}
