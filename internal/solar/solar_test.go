package solar

import (
	"math"
	"testing"
)

func mustGenerate(t *testing.T, c Config) []float64 {
	t.Helper()
	s, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	return s.Values
}

// month is the paper-like January of a 1 MW plant: 31 hourly days.
func month() Config {
	return Config{Days: 31, CapacityMW: 1, Seed: 1}
}

// clearSkyMWh is the month's production with the weather chain left
// out: the clear-sky envelope through the plant, per slot.
func clearSkyMWh(c Config) []float64 {
	env := newEnvelope(c.Days)
	out := make([]float64, len(env.irradiance))
	for i, irr := range env.irradiance {
		out[i] = c.CapacityMW * performanceRatio * (irr / 1000)
	}
	return out
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func TestGenerateShape(t *testing.T) {
	c := month()
	vals := mustGenerate(t, c)
	if len(vals) != 31*24 {
		t.Fatalf("len = %d, want %d", len(vals), 31*24)
	}
	for i, v := range vals {
		if v < 0 || v > c.CapacityMW {
			t.Fatalf("vals[%d] = %g outside [0, %g]", i, v, c.CapacityMW)
		}
	}
}

func TestGenerateNightIsZero(t *testing.T) {
	vals := mustGenerate(t, month())
	// Midnight to 4am in January at 39°N must be dark.
	for day := 0; day < 31; day++ {
		for h := 0; h < 4; h++ {
			if v := vals[day*24+h]; v != 0 {
				t.Fatalf("day %d hour %d: production %g at night", day, h, v)
			}
		}
	}
}

func TestGenerateDaytimePositive(t *testing.T) {
	vals := mustGenerate(t, month())
	// Noon production should be positive on most days (cloud cover reduces
	// but never zeroes the attenuation floor of 0.05).
	positive := 0
	for day := 0; day < 31; day++ {
		if vals[day*24+12] > 0 {
			positive++
		}
	}
	if positive != 31 {
		t.Fatalf("noon production positive on %d/31 days", positive)
	}
}

func TestGenerateDiurnalPeakNearNoon(t *testing.T) {
	vals := clearSkyMWh(month())
	for day := 0; day < 31; day++ {
		noon := vals[day*24+12]
		morning := vals[day*24+8]
		if noon <= morning {
			t.Fatalf("day %d: noon %g not above morning %g under clear sky", day, noon, morning)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, month())
	b := mustGenerate(t, month())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at slot %d", i)
		}
	}
	c := month()
	c.Seed = 999
	d := mustGenerate(t, c)
	same := true
	for i := range a {
		if a[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// January follows the winter solstice, so each clear-sky day of the
// month yields more than the one before.
func TestGenerateSeasonality(t *testing.T) {
	vals := clearSkyMWh(month())
	prev := 0.0
	for day := 0; day < 31; day++ {
		energy := sum(vals[day*24 : (day+1)*24])
		if energy <= prev {
			t.Fatalf("day %d: clear-sky energy %g not above the day before (%g)", day, energy, prev)
		}
		prev = energy
	}
}

// The weather chain spends about 40 % of its hours cloudy at 30 % of
// the clear-sky output, so a month yields well under its clear sky.
func TestGenerateCloudyReducesEnergy(t *testing.T) {
	c := month()
	weather, clear := sum(mustGenerate(t, c)), sum(clearSkyMWh(c))
	if weather >= 0.9*clear {
		t.Fatalf("month energy %g not well below its clear sky %g", weather, clear)
	}
}

// irradianceAt composes the clear-sky terms Generate tabulates for one
// latitude (degrees), day of year and local solar hour.
func irradianceAt(latDeg float64, dayOfYear int, hour float64) float64 {
	sinLat, cosLat := latitudeTerms(latDeg)
	sinDecl, cosDecl := declinationTerms(dayOfYear)
	return clearSkyIrradiance(sinLat*sinDecl + cosLat*cosDecl*math.Cos(hourAngle(hour)))
}

func TestClearSkyIrradiance(t *testing.T) {
	if irr := irradianceAt(39, 1, 0); irr != 0 {
		t.Errorf("midnight irradiance = %g, want 0", irr)
	}
	noon := irradianceAt(39, 1, 12)
	if noon < 200 || noon > 900 {
		t.Errorf("January noon irradiance at 39°N = %g, expected a few hundred W/m²", noon)
	}
	// Equator in March should beat 39°N January noon.
	eq := irradianceAt(0, 80, 12)
	if eq <= noon {
		t.Errorf("equator equinox %g not above winter mid-latitude %g", eq, noon)
	}
	if math.IsNaN(noon) || math.IsInf(noon, 0) {
		t.Error("irradiance not finite")
	}
}

// A shared envelope changes no bit: generating over another
// configuration's envelope of the same days gives exactly Generate's
// series, whatever the seed and capacity. An envelope of other days is
// refused.
func TestGenerateWithSharedEnvelope(t *testing.T) {
	for _, base := range []Config{month(), {Days: 3, CapacityMW: 2}} {
		env := NewEnvelope(base.Days)
		c := base
		c.Seed, c.CapacityMW = 42, 5
		want := mustGenerate(t, c)
		got, err := GenerateWith(c, env)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want[i]) {
				t.Fatalf("slot %d: %v over the shared envelope, %v alone", i, got.Values[i], want[i])
			}
		}
		other := c
		other.Days++
		if _, err := GenerateWith(other, env); err == nil {
			t.Fatalf("envelope of %+v accepted for %+v", base, other)
		}
	}
}
