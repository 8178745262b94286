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

func TestGenerateShape(t *testing.T) {
	c := Defaults()
	vals := mustGenerate(t, c)
	if len(vals) != 31*24 {
		t.Fatalf("len = %d, want %d", len(vals), 31*24)
	}
	slotHours := 1.0
	capMWh := c.CapacityMW * slotHours
	for i, v := range vals {
		if v < 0 || v > capMWh {
			t.Fatalf("vals[%d] = %g outside [0, %g]", i, v, capMWh)
		}
	}
}

func TestGenerateNightIsZero(t *testing.T) {
	vals := mustGenerate(t, Defaults())
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
	vals := mustGenerate(t, Defaults())
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
	c := Defaults()
	c.PClearToCloudy = 0 // clear-sky month
	vals := mustGenerate(t, c)
	for day := 0; day < 5; day++ {
		noon := vals[day*24+12]
		morning := vals[day*24+8]
		if noon <= morning {
			t.Fatalf("day %d: noon %g not above morning %g under clear sky", day, noon, morning)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, Defaults())
	b := mustGenerate(t, Defaults())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at slot %d", i)
		}
	}
	c := Defaults()
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

func TestGenerateSeasonality(t *testing.T) {
	winter := Defaults()
	winter.PClearToCloudy = 0
	summer := winter
	summer.StartDayOfYear = 172 // late June
	w, err := Generate(winter)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate(summer)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sum() <= w.Sum() {
		t.Fatalf("summer energy %g not above winter %g", s.Sum(), w.Sum())
	}
}

func TestGenerateLatitudeEffect(t *testing.T) {
	low := Defaults()
	low.PClearToCloudy = 0
	low.LatitudeDeg = 20
	high := low
	high.LatitudeDeg = 60
	l, err := Generate(low)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Generate(high)
	if err != nil {
		t.Fatal(err)
	}
	if l.Sum() <= h.Sum() {
		t.Fatalf("January: 20°N energy %g not above 60°N %g", l.Sum(), h.Sum())
	}
}

func TestGenerateFineResolution(t *testing.T) {
	c := Defaults()
	c.SlotMinutes = 15
	c.Days = 2
	s, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2*24*4 {
		t.Fatalf("len = %d, want %d", s.Len(), 2*24*4)
	}
	if s.SlotMinutes != 15 {
		t.Fatalf("SlotMinutes = %d, want 15", s.SlotMinutes)
	}
}

func TestGenerateCloudyReducesEnergy(t *testing.T) {
	clear := Defaults()
	clear.PClearToCloudy = 0
	cloudy := Defaults()
	cloudy.PClearToCloudy = 1
	cloudy.PCloudyToClear = 0
	c, err := Generate(clear)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Generate(cloudy)
	if err != nil {
		t.Fatal(err)
	}
	if o.Sum() >= c.Sum()*0.7 {
		t.Fatalf("overcast energy %g not well below clear-sky %g", o.Sum(), c.Sum())
	}
}

func TestConfigValidate(t *testing.T) {
	mut := func(f func(*Config)) Config {
		c := Defaults()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.Days = 0 }),
		mut(func(c *Config) { c.SlotMinutes = 0 }),
		mut(func(c *Config) { c.SlotMinutes = 100000 }),
		mut(func(c *Config) { c.CapacityMW = -1 }),
		mut(func(c *Config) { c.PerformanceRatio = 0 }),
		mut(func(c *Config) { c.PerformanceRatio = 1.5 }),
		mut(func(c *Config) { c.PClearToCloudy = -0.1 }),
		mut(func(c *Config) { c.PCloudyToClear = 1.1 }),
		mut(func(c *Config) { c.CloudyAttenuation = 2 }),
		mut(func(c *Config) { c.LatitudeDeg = 91 }),
		mut(func(c *Config) { c.StartDayOfYear = 0 }),
	}
	for i, c := range bad {
		if _, err := Generate(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
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
// configuration's envelope of the same latitude, season and slot grid
// gives exactly Generate's series, whatever the seed, capacity and
// weather parameters. An envelope of another grid is refused.
func TestGenerateWithSharedEnvelope(t *testing.T) {
	for _, base := range []Config{Defaults(), {LatitudeDeg: -20, StartDayOfYear: 300, Days: 3, SlotMinutes: 15,
		CapacityMW: 2, PerformanceRatio: 0.9, PClearToCloudy: 0.2, PCloudyToClear: 0.3, CloudyAttenuation: 0.5}} {
		env, err := NewEnvelope(base)
		if err != nil {
			t.Fatal(err)
		}
		c := base
		c.Seed, c.CapacityMW, c.CloudyAttenuation = 42, 5, 0.1
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
		for _, mut := range []func(*Config){
			func(c *Config) { c.LatitudeDeg++ },
			func(c *Config) { c.StartDayOfYear++ },
			func(c *Config) { c.Days++ },
			func(c *Config) { c.SlotMinutes *= 2 },
		} {
			other := c
			mut(&other)
			if _, err := GenerateWith(other, env); err == nil {
				t.Fatalf("envelope of %+v accepted for %+v", base, other)
			}
		}
	}
}
