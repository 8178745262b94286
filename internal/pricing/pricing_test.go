package pricing

import (
	"testing"
)

func mustGenerate(t *testing.T, c Config) (lt, rt []float64) {
	t.Helper()
	ltS, rtS := Generate(c)
	return ltS.Values, rtS.Values
}

// month is the NYISO-January-like default month: 31 hourly days.
func month() Config { return Config{Days: 31, Seed: 2} }

func TestGenerateLengthsAndBounds(t *testing.T) {
	lt, rt := mustGenerate(t, month())
	if len(lt) != 31*24 || len(rt) != 31*24 {
		t.Fatalf("lengths = %d, %d, want %d", len(lt), len(rt), 31*24)
	}
	for i := range lt {
		if lt[i] < pFloor || lt[i] > pmax {
			t.Fatalf("lt[%d] = %g outside [%g, %g]", i, lt[i], pFloor, pmax)
		}
		if rt[i] < pFloor || rt[i] > pmax {
			t.Fatalf("rt[%d] = %g outside [%g, %g]", i, rt[i], pFloor, pmax)
		}
	}
}

func TestGenerateRealTimePremium(t *testing.T) {
	ltS, rtS := Generate(month())
	if rtS.Mean() <= ltS.Mean() {
		t.Fatalf("E[prt] = %g must exceed E[plt] = %g (paper Sec. II-B.2)",
			rtS.Mean(), ltS.Mean())
	}
}

func TestGenerateRealTimeMoreVolatile(t *testing.T) {
	ltS, rtS := Generate(month())
	if rtS.StdDev() <= ltS.StdDev() {
		t.Fatalf("real-time std %g must exceed long-term std %g",
			rtS.StdDev(), ltS.StdDev())
	}
}

func TestGenerateSpikesOccur(t *testing.T) {
	_, rt := mustGenerate(t, month())
	base := baseLT * rtPremium
	spikes := 0
	for _, v := range rt {
		if v > 1.8*base {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("no real-time spikes in a month; spike process broken")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	lt1, rt1 := mustGenerate(t, month())
	lt2, rt2 := mustGenerate(t, month())
	for i := range lt1 {
		if lt1[i] != lt2[i] || rt1[i] != rt2[i] {
			t.Fatalf("same seed diverged at slot %d", i)
		}
	}
	c := month()
	c.Seed = 77
	_, rt3 := mustGenerate(t, c)
	same := true
	for i := range rt1 {
		if rt1[i] != rt3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// The long-term price carries the weekly shape; the real-time noise and
// spikes never touch it.
func TestGenerateWeekendDiscount(t *testing.T) {
	lt, _ := mustGenerate(t, month())
	weekday, weekend := 0.0, 0.0
	nWd, nWe := 0, 0
	for i, v := range lt {
		day := i / 24
		if day%7 == 5 || day%7 == 6 {
			weekend += v
			nWe++
		} else {
			weekday += v
			nWd++
		}
	}
	if weekend/float64(nWe) >= weekday/float64(nWd) {
		t.Fatalf("weekend mean %g not below weekday mean %g",
			weekend/float64(nWe), weekday/float64(nWd))
	}
}

// The diurnal shape lifts the 6pm real-time price over the 3am one by
// about half the day's level, far beyond what the noise and the spikes
// move a month's totals.
func TestGenerateEveningPeak(t *testing.T) {
	c := month()
	_, rt := mustGenerate(t, c)
	evening, night := 0.0, 0.0
	for d := 0; d < c.Days; d++ {
		evening += rt[d*24+18]
		night += rt[d*24+3]
	}
	if evening <= night {
		t.Fatalf("evening total %g not above night total %g", evening, night)
	}
}

func TestDiurnalShapeBounded(t *testing.T) {
	for h := 0.0; h < 24; h += 0.25 {
		v := diurnalShape(h)
		if v < -1 || v > 1 {
			t.Fatalf("diurnalShape(%g) = %g outside [-1, 1]", h, v)
		}
	}
}
