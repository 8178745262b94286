package main

import (
	"errors"
	"testing"

	dpss "github.com/smartdpss/smartdpss"
)

func TestRunDefaultsShortHorizon(t *testing.T) {
	if err := run([]string{"-days", "2"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, policy := range []string{"smartdpss", "impatient", "offline", "offline-horizon", "lookahead", "lyapunov"} {
		if err := run([]string{"-days", "2", "-policy", policy}); err != nil {
			t.Errorf("policy %s: %v", policy, err)
		}
	}
}

func TestRunGenerator(t *testing.T) {
	if err := run([]string{"-days", "2", "-gen-mw", "0.5", "-fuel", "45"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunWithKnobs(t *testing.T) {
	args := []string{
		"-days", "2", "-v", "2.5", "-epsilon", "1",
		"-t", "12", "-battery-minutes", "30",
		"-penetration", "0.4", "-bounds",
	}
	if err := run(args); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunRTM(t *testing.T) {
	if err := run([]string{"-days", "2", "-rtm"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunNoise(t *testing.T) {
	if err := run([]string{"-days", "2", "-noise", "0.5"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	cases := [][]string{
		{"-days", "0"},
		{"-policy", "nonsense", "-days", "1"},
		{"-noise", "2", "-days", "1"},
		{"-penetration", "0.5", "-solar-mw", "0", "-days", "1"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// The generator flags build a fleet unit, so its validation applies.
	for _, args := range [][]string{
		{"-gen-mw", "-1", "-days", "1"},
		{"-gen-mw", "0.5", "-fuel", "-5", "-days", "1"},
	} {
		if err := run(args); !errors.Is(err, dpss.ErrInvalidOptions) {
			t.Errorf("args %v: err = %v, want ErrInvalidOptions", args, err)
		}
	}
}
