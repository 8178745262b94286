package workload

import (
	"math"
	"math/rand"
	"testing"

	"github.com/smartdpss/smartdpss/internal/rng"
)

func mustGenerate(t *testing.T, c Config) (ds, dt []float64) {
	t.Helper()
	dsS, dtS := Generate(c)
	return dsS.Values, dtS.Values
}

// month is the paper-like default month: 31 hourly days under a 2 MW
// grid cap.
func month() Config { return Config{Days: 31, PgridMW: 2, Seed: 3} }

// level is the model's noise-free, flash-free interactive power at slot
// s of an hourly day: its diurnal shape and weekend dip alone.
func level(day, s int) float64 {
	v := interactivePeakMW * (interactiveBase + (1-interactiveBase)*interactiveShape(float64(s)+0.5))
	if day%7 == 5 || day%7 == 6 {
		v *= weekendFactor
	}
	return v
}

func TestGenerateLengthsAndBounds(t *testing.T) {
	c := month()
	ds, dt := mustGenerate(t, c)
	if len(ds) != 31*24 || len(dt) != 31*24 {
		t.Fatalf("lengths = %d, %d, want %d", len(ds), len(dt), 31*24)
	}
	budget := c.PgridMW // 1-hour slots: MWh == MW
	for i := range ds {
		if ds[i] < 0 || dt[i] < 0 {
			t.Fatalf("negative demand at %d: ds=%g dt=%g", i, ds[i], dt[i])
		}
		if dt[i] > ddtMax+1e-12 {
			t.Fatalf("dt[%d] = %g exceeds ddtMax %g", i, dt[i], ddtMax)
		}
		if ds[i]+dt[i] > budget+1e-9 {
			t.Fatalf("total demand %g at slot %d exceeds Pgrid budget %g",
				ds[i]+dt[i], i, budget)
		}
	}
}

func TestGenerateDiurnalPattern(t *testing.T) {
	c := month()
	ds, _ := mustGenerate(t, c)
	day, night := 0.0, 0.0
	for d := 0; d < c.Days; d++ {
		day += ds[d*24+14]
		night += ds[d*24+4]
	}
	if day <= night {
		t.Fatalf("2pm total %g not above 4am total %g", day, night)
	}
}

func TestGenerateWeekendDip(t *testing.T) {
	ds, _ := mustGenerate(t, month())
	weekday, weekend := 0.0, 0.0
	nWd, nWe := 0, 0
	for i, v := range ds {
		if (i/24)%7 >= 5 {
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

func TestGenerateBatchMeanApproximatelyTuned(t *testing.T) {
	c := month()
	c.Days = 62 // longer horizon tightens the estimate
	_, dt := mustGenerate(t, c)
	sum := 0.0
	for _, v := range dt {
		sum += v
	}
	mean := sum / float64(len(dt))
	// Clipping at DdtMax and Pgrid biases the mean down; accept a wide band.
	if mean < 0.5*batchMeanMW || mean > 1.5*batchMeanMW {
		t.Fatalf("batch mean %g MW, want within 50%% of %g", mean, batchMeanMW)
	}
}

func TestGenerateBatchBurstierThanInteractive(t *testing.T) {
	dsS, dtS := Generate(month())
	// Coefficient of variation: batch arrivals are the bursty class.
	cvDS := dsS.StdDev() / dsS.Mean()
	cvDT := dtS.StdDev() / dtS.Mean()
	if cvDT <= cvDS {
		t.Fatalf("batch CV %g not above interactive CV %g", cvDT, cvDS)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ds1, dt1 := mustGenerate(t, month())
	ds2, dt2 := mustGenerate(t, month())
	for i := range ds1 {
		if ds1[i] != ds2[i] || dt1[i] != dt2[i] {
			t.Fatalf("same seed diverged at slot %d", i)
		}
	}
	c := month()
	c.Seed = 1234
	ds3, _ := mustGenerate(t, c)
	same := true
	for i := range ds1 {
		if ds1[i] != ds3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Flash crowds lift delay-sensitive demand past anything the noise
// reaches: the AR(1) noise has a stationary deviation of
// noiseSigma/0.8 = 7.5 % of the level, so a slot 40 % above its
// noise-free level is more than five deviations out, while a crowd
// multiplies the level by 1.3 to 2.
func TestGenerateFlashCrowdsRaisePeak(t *testing.T) {
	ds, _ := mustGenerate(t, month())
	peak := 0.0
	for i, v := range ds {
		peak = max(peak, v/level(i/24, i%24))
	}
	if peak <= 1.4 {
		t.Fatalf("demand peaked at %.3f of its noise-free level, want above 1.4", peak)
	}
}

func TestPoisson(t *testing.T) {
	// Rate 0 must give 0, and the mean must roughly track lambda for a
	// moderate rate.
	r := rand.New(rng.NewSource(1))
	if k := poisson(r, 0, 1); k != 0 {
		t.Fatalf("poisson(0) = %d", k)
	}
	const lambda, n = 0.7, 20000
	sum := 0
	for range n {
		sum += poisson(r, lambda, math.Exp(-lambda))
	}
	if mean := float64(sum) / n; math.Abs(mean-lambda) > 0.05 {
		t.Fatalf("poisson(%g) mean %g over %d draws", lambda, mean, n)
	}
}

func TestInteractiveShapeBounds(t *testing.T) {
	for h := 0.0; h < 24; h += 0.25 {
		v := interactiveShape(h)
		if v < 0 || v > 1 {
			t.Fatalf("interactiveShape(%g) = %g outside [0, 1]", h, v)
		}
	}
	if interactiveShape(14) <= interactiveShape(4) {
		t.Error("2pm shape must exceed 4am shape")
	}
}
