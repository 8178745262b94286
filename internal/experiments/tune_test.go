package experiments

import (
	"reflect"
	"strings"
	"testing"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
)

func tuneTestOptions(parallel int) TuneOptions {
	return TuneOptions{
		Policy:   dpss.PolicySmartDPSS,
		Base:     dpss.DefaultOptions(),
		Suite:    Config{Days: 2, Seed: 1, SkipOffline: true, Seeds: 2, Parallel: parallel},
		Seed:     1,
		MaxEvals: 25,
	}
}

// TestRunTuneParallelDeterminism is the tuner's core contract: the same
// TuneOptions produce a bit-identical result — winner, scores, and the
// full simplex trajectory — whether the multi-seed objective evaluates
// on one worker or eight.
func TestRunTuneParallelDeterminism(t *testing.T) {
	seq, err := RunTune(tuneTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunTune(tuneTestOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("tune diverged between -parallel 1 and -parallel 8:\n%+v\nvs\n%+v", seq, par)
	}
}

// TestRunTuneImproves: the tuned point can never score worse than the
// default (the default is the optimizer's start vertex), and here it
// must find a strictly better one.
func TestRunTuneImproves(t *testing.T) {
	for _, policy := range []dpss.Policy{dpss.PolicySmartDPSS, dpss.PolicyLyapunov} {
		topts := tuneTestOptions(4)
		topts.Policy = policy
		res, err := RunTune(topts)
		if err != nil {
			t.Fatal(err)
		}
		if res.TunedScore > res.DefaultScore {
			t.Errorf("%s: tuned %g worse than default %g", policy, res.TunedScore, res.DefaultScore)
		}
		if res.Gap() < 0 {
			t.Errorf("%s: negative gap %g", policy, res.Gap())
		}
		if len(res.Names) != len(res.Tuned) || len(res.Names) != len(res.Default) {
			t.Errorf("%s: ragged vectors: %d names, %d tuned, %d default",
				policy, len(res.Names), len(res.Tuned), len(res.Default))
		}
		if s := res.ParamString(); !strings.Contains(s, "=") {
			t.Errorf("%s: param string %q", policy, s)
		}
		// The tuned options must actually simulate.
		tc := topts.Suite.TraceConfig()
		traces, err := dpss.GenerateTraces(tc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dpss.Simulate(policy, res.Options, traces); err != nil {
			t.Errorf("%s: tuned options rejected: %v", policy, err)
		}
	}
}

// TestRunTuneFleetAddsCommitWindow: a fleet-configured base exposes the
// unit-commitment window as a fourth integer dimension.
func TestRunTuneFleetAddsCommitWindow(t *testing.T) {
	base := dpss.DefaultOptions()
	base.Fleet = []dpss.UnitSpec{{CapacityMW: 1}}
	space, err := newTuneSpace(dpss.PolicySmartDPSS, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(space.names) != 4 || space.names[3] != "W" || !space.integer[3] {
		t.Fatalf("fleet space = %v (integer %v), want trailing integer W", space.names, space.integer)
	}
	var o dpss.Options
	space.apply([]float64{1, 0.5, 24.4, 6.6}, &o)
	if o.T != 24 || o.CommitWindow != 7 {
		t.Errorf("apply rounded to T=%d W=%d, want 24/7", o.T, o.CommitWindow)
	}
}

// TestTuneSpaceLyapunovScalesDefault: vscale 1 must reproduce the
// policy's own scale-aware default V.
func TestTuneSpaceLyapunovScalesDefault(t *testing.T) {
	base := dpss.DefaultOptions()
	space, err := newTuneSpace(dpss.PolicyLyapunov, base)
	if err != nil {
		t.Fatal(err)
	}
	var o dpss.Options
	space.apply([]float64{1, 0.6}, &o)
	bc := base.BaselineConfig()
	want := (bc.Battery.CapacityMWh - bc.Battery.MinLevelMWh) / bc.PmaxUSD
	if o.LyapunovV != want {
		t.Errorf("vscale=1 → V=%g, want default %g", o.LyapunovV, want)
	}
	if o.LyapunovTheta != 0.6 {
		t.Errorf("theta = %g, want 0.6", o.LyapunovTheta)
	}
}

func TestRunTuneRejectsUntunable(t *testing.T) {
	topts := tuneTestOptions(1)
	topts.Policy = dpss.PolicyImpatient
	if _, err := RunTune(topts); err == nil {
		t.Error("untunable policy accepted")
	}
	if _, err := NewTuneObjective(topts); err == nil {
		t.Error("untunable objective accepted")
	}
	// Lyapunov with no battery has no tunable surface.
	topts = tuneTestOptions(1)
	topts.Policy = dpss.PolicyLyapunov
	topts.Base.BatteryMinutes = 0
	if _, err := RunTune(topts); err == nil {
		t.Error("batteryless lyapunov tune accepted")
	}
}

// TestTuneObjectiveWorstSeedGuard: with full worst-weight the score is
// the max over seeds, with disabled guard it is the mean; the blended
// default sits between them.
func TestTuneObjectiveWorstSeedGuard(t *testing.T) {
	mk := func(w float64) float64 {
		topts := tuneTestOptions(2)
		topts.WorstWeight = w
		obj, err := NewTuneObjective(topts)
		if err != nil {
			t.Fatal(err)
		}
		space, err := newTuneSpace(topts.Policy, topts.Base)
		if err != nil {
			t.Fatal(err)
		}
		f, err := obj(space.x0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	mean, blend, worst := mk(-1), mk(0), mk(1)
	if !(mean <= blend && blend <= worst) {
		t.Errorf("score ordering broken: mean %g, blend %g, worst %g", mean, blend, worst)
	}
	if mean == worst {
		t.Skip("degenerate: all seeds scored identically")
	}
}
