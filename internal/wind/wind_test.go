package wind

import (
	"math"
	"testing"
)

func mustGenerate(t *testing.T, c Config) []float64 {
	t.Helper()
	return Generate(c).Values
}

// month is the default month of a 1 MW farm: 31 hourly days.
func month() Config {
	return Config{Days: 31, CapacityMW: 1, Seed: 4}
}

func TestGenerateBounds(t *testing.T) {
	c := month()
	vals := mustGenerate(t, c)
	if len(vals) != 31*24 {
		t.Fatalf("len = %d, want %d", len(vals), 31*24)
	}
	capMWh := c.CapacityMW // 1-hour slots
	for i, v := range vals {
		if v < 0 || v > capMWh+1e-12 {
			t.Fatalf("vals[%d] = %g outside [0, %g]", i, v, capMWh)
		}
	}
}

func TestGenerateProducesEnergy(t *testing.T) {
	c := month()
	vals := mustGenerate(t, c)
	total := 0.0
	for _, v := range vals {
		total += v
	}
	// A 7.5 m/s site with a 12 m/s rated turbine should run at a
	// plausible capacity factor.
	cf := total / (float64(len(vals)) * c.CapacityMW)
	if cf < 0.1 || cf > 0.7 {
		t.Fatalf("capacity factor = %.3f, expected 0.1..0.7", cf)
	}
}

func TestGenerateNotDayNightGated(t *testing.T) {
	// Unlike solar, wind must produce at night on a typical site.
	vals := mustGenerate(t, month())
	night := 0.0
	for day := 0; day < 31; day++ {
		night += vals[day*24+2]
	}
	if night == 0 {
		t.Fatal("no night production in a month — wind should not be day-gated")
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
	c.Seed = 99
	d := mustGenerate(t, c)
	same := true
	for i := range a {
		if a[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestPowerCurve(t *testing.T) {
	tests := []struct {
		speed float64
		want  float64
	}{
		{0, 0},
		{2.9, 0}, // below cut-in
		{3.0, 0}, // at cut-in: cubic starts at zero
		{12, 1},  // rated
		{20, 1},  // between rated and cut-out
		{25, 0},  // cut-out
		{30, 0},  // storm
	}
	for _, tt := range tests {
		got := powerCurve(tt.speed)
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("powerCurve(%g) = %g, want %g", tt.speed, got, tt.want)
		}
	}
	// Monotone between cut-in and rated.
	prev := -1.0
	for s := 3.0; s <= 12.0; s += 0.5 {
		v := powerCurve(s)
		if v < prev {
			t.Fatalf("power curve not monotone at %g m/s", s)
		}
		prev = v
	}
}
