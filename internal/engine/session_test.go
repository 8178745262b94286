package engine

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

func monthTraces(t *testing.T) *Traces {
	t.Helper()
	traces, err := GenerateTraces(DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSessionSoakMatchesSimulate is the headline equivalence soak: a full
// one-month run driven slot-by-slot through the streaming Session API
// must produce a byte-identical report to batch Simulate — for the
// Lyapunov controller and the strawman baseline.
func TestSessionSoakMatchesSimulate(t *testing.T) {
	traces := monthTraces(t)
	for _, policy := range []Policy{PolicySmartDPSS, PolicyImpatient} {
		t.Run(string(policy), func(t *testing.T) {
			opts := DefaultOptions()
			batch, err := Simulate(policy, opts, traces)
			if err != nil {
				t.Fatal(err)
			}

			s, err := NewSession(policy, opts, traces.Horizon())
			if err != nil {
				t.Fatal(err)
			}
			for !s.Done() {
				if _, err := s.Step(traces.InputAt(s.Slot())); err != nil {
					t.Fatalf("step %d: %v", s.Slot(), err)
				}
				if _, err := s.Commit(); err != nil {
					t.Fatalf("commit %d: %v", s.Slot(), err)
				}
			}
			streamed, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}

			if a, b := reportJSON(t, batch), reportJSON(t, streamed); a != b {
				t.Errorf("streamed month differs from batch Simulate")
			}
		})
	}
}

// TestReplaySessionMatchesSimulate: the replay convenience loop is the
// exact same computation as Simulate (Simulate is built on it).
func TestReplaySessionMatchesSimulate(t *testing.T) {
	traces := monthTraces(t)
	opts := DefaultOptions()
	batch, err := Simulate(PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewReplaySession(PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.StepReplay(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, batch) != reportJSON(t, rep) {
		t.Error("replay session differs from batch Simulate")
	}
}

// TestSnapshotRestoreMidMonth: checkpoint mid-horizon, restore onto a
// fresh session, and the completed run must match the uninterrupted one
// byte for byte — including through the noise-wrapped controller, whose
// RNG position must survive the round trip.
func TestSnapshotRestoreMidMonth(t *testing.T) {
	traces := monthTraces(t)
	for _, tc := range []struct {
		name string
		mut  func(*Options)
	}{
		{"smartdpss", func(*Options) {}},
		{"smartdpss+noise", func(o *Options) { o.ObservationNoise = 0.5; o.NoiseSeed = 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mut(&opts)
			want, err := Simulate(PolicySmartDPSS, opts, traces)
			if err != nil {
				t.Fatal(err)
			}

			first, err := NewReplaySession(PolicySmartDPSS, opts, traces)
			if err != nil {
				t.Fatal(err)
			}
			cut := traces.Horizon() / 3
			for first.Slot() < cut {
				if _, err := first.StepReplay(); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := first.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			second, err := NewReplaySession(PolicySmartDPSS, opts, traces)
			if err != nil {
				t.Fatal(err)
			}
			if err := second.Restore(blob); err != nil {
				t.Fatal(err)
			}
			if second.Slot() != cut {
				t.Fatalf("restored slot = %d, want %d", second.Slot(), cut)
			}
			for !second.Done() {
				if _, err := second.StepReplay(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := second.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if reportJSON(t, want) != reportJSON(t, got) {
				t.Error("restored run differs from uninterrupted run")
			}
		})
	}
}

// TestSnapshotOptionsMismatch: a checkpoint must not restore under any
// different tuning — even one that the sim layer's own Config cannot
// see, like the Lyapunov V parameter.
func TestSnapshotOptionsMismatch(t *testing.T) {
	traces := monthTraces(t)
	opts := DefaultOptions()
	s, err := NewReplaySession(PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := opts
	other.V = opts.V * 2
	s2, err := NewReplaySession(PolicySmartDPSS, other, traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(blob); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("restore under different V: err = %v, want ErrSnapshotMismatch", err)
	}

	imp, err := NewReplaySession(PolicyImpatient, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := imp.Restore(blob); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("restore under different policy: err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestOfflineSnapshotUnsupported: the clairvoyant benchmarks precompute
// their plans and cannot be checkpointed; the API says so explicitly.
func TestOfflineSnapshotUnsupported(t *testing.T) {
	traces := monthTraces(t)
	s, err := NewReplaySession(PolicyOfflineHorizon, DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Errorf("err = %v, want ErrSnapshotUnsupported", err)
	}
}

// TestErrInvalidOptions: every construction-time validation failure is
// branchable via errors.Is(err, ErrInvalidOptions) while keeping its
// historical message text.
func TestErrInvalidOptions(t *testing.T) {
	traces := monthTraces(t)
	t.Run("bad carbon price", func(t *testing.T) {
		opts := DefaultOptions()
		opts.CarbonUSDPerTon = -1
		_, err := Simulate(PolicySmartDPSS, opts, traces)
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("err = %v, want ErrInvalidOptions", err)
		}
	})
	t.Run("unknown policy", func(t *testing.T) {
		_, err := Simulate(Policy("bogus"), DefaultOptions(), traces)
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("err = %v, want ErrInvalidOptions", err)
		}
	})
	t.Run("offline policy without traces", func(t *testing.T) {
		_, err := NewSession(PolicyOfflineOptimal, DefaultOptions(), 24)
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("err = %v, want ErrInvalidOptions", err)
		}
	})
	t.Run("non-positive horizon", func(t *testing.T) {
		_, err := NewSession(PolicySmartDPSS, DefaultOptions(), 0)
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("err = %v, want ErrInvalidOptions", err)
		}
	})
	t.Run("valid options pass", func(t *testing.T) {
		if _, err := NewSession(PolicySmartDPSS, DefaultOptions(), 24); err != nil {
			t.Errorf("valid session rejected: %v", err)
		}
	})
}

// TestNonFiniteOptionsRejected: every float field of Options at NaN or
// +Inf, and the three sizing fields at 1e308 (finite, but +Inf once
// scaled into Smax or Bmax), must fail session construction with
// ErrInvalidOptions on every policy. A NaN V or ε used to reach P5's
// pair loop and spin forever; the test never steps, so it cannot hang.
func TestNonFiniteOptionsRejected(t *testing.T) {
	tc := DefaultTraceConfig()
	tc.Days = 2
	traces, err := GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	type poison struct {
		field string
		v     float64
	}
	var cases []poison
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Float64 {
			cases = append(cases, poison{f.Name, math.NaN()}, poison{f.Name, math.Inf(1)})
		}
	}
	if len(cases) != 2*12 {
		t.Fatalf("Options has %d float fields, want 12", len(cases)/2)
	}
	for _, f := range []string{"PeakMW", "BatteryMinutes", "BatteryReferenceMW"} {
		cases = append(cases, poison{f, 1e308})
	}
	for _, c := range cases {
		opts := DefaultOptions()
		reflect.ValueOf(&opts).Elem().FieldByName(c.field).SetFloat(c.v)
		for _, policy := range []Policy{PolicySmartDPSS, PolicyImpatient, PolicyLyapunov} {
			if _, err := NewSession(policy, opts, traces.Horizon()); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s = %g, %s: err = %v, want ErrInvalidOptions", c.field, c.v, policy, err)
			}
		}
		for _, policy := range []Policy{PolicyOfflineOptimal, PolicyOfflineHorizon, PolicyLookahead} {
			if _, err := NewReplaySession(policy, opts, traces); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s = %g, %s: err = %v, want ErrInvalidOptions", c.field, c.v, policy, err)
			}
		}
	}
}

// TestCrossProcessRestore proves the checkpoint survives process death:
// the parent runs a third of the month and writes a checkpoint file; a
// re-executed copy of this test binary restores it, runs the tail and
// reports back; the child's report must match the uninterrupted run
// byte for byte.
func TestCrossProcessRestore(t *testing.T) {
	if os.Getenv("DPSS_RESTORE_HELPER") == "1" {
		crossProcessChild(t)
		return
	}

	traces := monthTraces(t)
	opts := DefaultOptions()
	want, err := Simulate(PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}

	first, err := NewReplaySession(PolicySmartDPSS, opts, traces)
	if err != nil {
		t.Fatal(err)
	}
	cut := traces.Horizon() / 3
	for first.Slot() < cut {
		if _, err := first.StepReplay(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.json")
	out := filepath.Join(dir, "report.json")
	if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=TestCrossProcessRestore$")
	cmd.Env = append(os.Environ(),
		"DPSS_RESTORE_HELPER=1",
		"DPSS_RESTORE_CKPT="+ckpt,
		"DPSS_RESTORE_OUT="+out,
	)
	if outp, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, outp)
	}

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, want) != string(got) {
		t.Error("cross-process restored run differs from uninterrupted run")
	}
}

// crossProcessChild is the re-executed half of TestCrossProcessRestore:
// a fresh process with no shared memory, only the checkpoint file.
func crossProcessChild(t *testing.T) {
	ckpt := os.Getenv("DPSS_RESTORE_CKPT")
	out := os.Getenv("DPSS_RESTORE_OUT")
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// The trace config is deterministic, so the child regenerates the
	// identical world the parent simulated.
	traces, err := GenerateTraces(DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewReplaySession(PolicySmartDPSS, DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.StepReplay(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSessionAccessors covers the monitoring surface the daemon scrapes.
func TestSessionAccessors(t *testing.T) {
	traces := monthTraces(t)
	s, err := NewReplaySession(PolicySmartDPSS, DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy() != PolicySmartDPSS {
		t.Errorf("policy = %q", s.Policy())
	}
	if s.Horizon() != traces.Horizon() {
		t.Errorf("horizon = %d, want %d", s.Horizon(), traces.Horizon())
	}
	for i := 0; i < 48; i++ {
		if _, err := s.StepReplay(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Status()
	if st.Slot != 48 || st.TotalCostUSD <= 0 {
		t.Errorf("status slot=%d cost=%g", st.Slot, st.TotalCostUSD)
	}
	if name := s.ControllerName(); name == "" {
		t.Error("empty controller name")
	}
	if s.Pending() {
		t.Error("pending between slots")
	}
}

// TestStreamingSessionRejectsStepReplay: a session built without traces
// cannot replay.
func TestStreamingSessionRejectsStepReplay(t *testing.T) {
	s, err := NewSession(PolicySmartDPSS, DefaultOptions(), 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepReplay(); err == nil {
		t.Error("StepReplay on a streaming session succeeded")
	}
}
