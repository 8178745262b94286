package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// snapController is a scriptController that can be checkpointed: its
// only mutable state is the outcome count, enough to prove the blob
// round-trips.
type snapController struct {
	scriptController
}

func (s *snapController) AppendState(dst []byte) ([]byte, error) {
	blob, err := json.Marshal(struct{ Outcomes int }{len(s.outcomes)})
	return append(dst, blob...), err
}

func (s *snapController) RestoreState(data []byte) error {
	var v struct{ Outcomes int }
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	s.outcomes = s.outcomes[:0]
	for i := 0; i < v.Outcomes; i++ {
		s.outcomes = append(s.outcomes, Outcome{})
	}
	return nil
}

// fpFn wraps a literal fingerprint as the lazy thunk NewSession takes.
func fpFn(fp string) func() string { return func() string { return fp } }

var fpTest = fpFn("fp")

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSessionMatchesRun pins the tentpole invariant at the sim layer:
// stepping a session slot by slot produces a byte-identical report to
// the batch Run loop.
func TestSessionMatchesRun(t *testing.T) {
	set := flatSet(10, 1.0, 0.4, 0.2, 40, 50)
	cfg := testConfig()

	batch, err := Run(cfg, set, &scriptController{name: "eq", gbef: 3})
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(cfg, &scriptController{name: "eq", gbef: 3}, set.Horizon(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Finished() && s.Slot() < s.Horizon() {
		if _, err := s.Step(InputAt(set, s.Slot())); err != nil {
			t.Fatalf("step %d: %v", s.Slot(), err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatalf("commit %d: %v", s.Slot(), err)
		}
	}
	stepped, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if a, b := reportBytes(t, batch), reportBytes(t, stepped); string(a) != string(b) {
		t.Errorf("stepped report differs from batch:\nbatch:   %s\nstepped: %s", a, b)
	}
}

func TestSessionProtocolErrors(t *testing.T) {
	set := flatSet(4, 1, 0, 0, 40, 50)
	cfg := testConfig()
	newSess := func(t *testing.T) *Session {
		s, err := NewSession(cfg, &scriptController{name: "proto", gbef: 4}, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("commit without step", func(t *testing.T) {
		s := newSess(t)
		if _, err := s.Commit(); !errors.Is(err, ErrNoPendingDecision) {
			t.Errorf("err = %v, want ErrNoPendingDecision", err)
		}
	})
	t.Run("step while pending", func(t *testing.T) {
		s := newSess(t)
		if _, err := s.Step(InputAt(set, 0)); err != nil {
			t.Fatal(err)
		}
		if !s.Pending() {
			t.Error("Pending() = false after Step")
		}
		if _, err := s.Step(InputAt(set, 1)); !errors.Is(err, ErrPendingDecision) {
			t.Errorf("err = %v, want ErrPendingDecision", err)
		}
	})
	t.Run("step past horizon", func(t *testing.T) {
		s := newSess(t)
		for i := 0; i < 4; i++ {
			if _, err := s.Step(InputAt(set, i)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Step(InputAt(set, 0)); !errors.Is(err, ErrHorizonExhausted) {
			t.Errorf("err = %v, want ErrHorizonExhausted", err)
		}
	})
	t.Run("step after finish", func(t *testing.T) {
		s := newSess(t)
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		if !s.Finished() {
			t.Error("Finished() = false after Finish")
		}
		if _, err := s.Step(InputAt(set, 0)); !errors.Is(err, ErrSessionFinished) {
			t.Errorf("err = %v, want ErrSessionFinished", err)
		}
	})
	t.Run("invalid input field", func(t *testing.T) {
		s := newSess(t)
		in := InputAt(set, 0)
		in.PriceRT = math.NaN()
		_, err := s.Step(in)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("err = %v, want *ValidationError", err)
		}
		if verr.Field != "PriceRT" {
			t.Errorf("field = %q, want PriceRT", verr.Field)
		}
	})
}

func TestSessionStatus(t *testing.T) {
	set := flatSet(8, 1.0, 0.4, 0, 40, 50)
	s, err := NewSession(testConfig(), &scriptController{name: "status", gbef: 4}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Step(InputAt(set, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Status()
	if st.Slot != 4 || st.Horizon != 8 {
		t.Errorf("slot/horizon = %d/%d, want 4/8", st.Slot, st.Horizon)
	}
	if st.TotalCostUSD <= 0 {
		t.Errorf("mid-run total cost = %g, want > 0", st.TotalCostUSD)
	}
	if st.BacklogMWh <= 0 {
		t.Errorf("backlog = %g, want > 0 (nothing serves DT)", st.BacklogMWh)
	}
	if st.LTEnergyMWh <= 0 {
		t.Errorf("LT energy = %g, want > 0", st.LTEnergyMWh)
	}
}

// TestSessionSnapshotRestoreTail checks the crash-recovery contract:
// snapshot mid-run, restore onto a fresh identically-configured session,
// and the tail must be byte-identical to the uninterrupted run.
func TestSessionSnapshotRestoreTail(t *testing.T) {
	const horizon = 12
	set := flatSet(horizon, 1.0, 0.4, 0.2, 40, 50)
	cfg := testConfig()
	mk := func() *snapController {
		return &snapController{scriptController{name: "tail", gbef: 3}}
	}

	// Uninterrupted reference run.
	ref, err := NewSession(cfg, mk(), horizon, fpTest)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s *Session, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := s.Step(InputAt(set, i)); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
	}
	run(ref, 0, horizon)
	want, err := ref.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: snapshot at the midpoint.
	first, err := NewSession(cfg, mk(), horizon, fpTest)
	if err != nil {
		t.Fatal(err)
	}
	run(first, 0, horizon/2)
	blob, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	second, err := NewSession(cfg, mk(), horizon, fpTest)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if second.Slot() != horizon/2 {
		t.Fatalf("restored slot = %d, want %d", second.Slot(), horizon/2)
	}
	run(second, horizon/2, horizon)
	got, err := second.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if a, b := reportBytes(t, want), reportBytes(t, got); string(a) != string(b) {
		t.Errorf("restored tail differs from uninterrupted run:\nwant: %s\ngot:  %s", a, b)
	}
}

func TestSessionSnapshotErrors(t *testing.T) {
	set := flatSet(4, 1, 0, 0, 40, 50)
	cfg := testConfig()
	mk := func(fp string) *Session {
		s, err := NewSession(cfg, &snapController{scriptController{name: "snap", gbef: 4}}, 4, fpFn(fp))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("pending decision", func(t *testing.T) {
		s := mk("a")
		if _, err := s.Step(InputAt(set, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Snapshot(); !errors.Is(err, ErrPendingDecision) {
			t.Errorf("Snapshot err = %v, want ErrPendingDecision", err)
		}
		if err := s.Restore(nil); !errors.Is(err, ErrPendingDecision) {
			t.Errorf("Restore err = %v, want ErrPendingDecision", err)
		}
	})
	t.Run("unsupported controller", func(t *testing.T) {
		s, err := NewSession(cfg, &scriptController{name: "plain", gbef: 4}, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Snapshot(); !errors.Is(err, ErrSnapshotUnsupported) {
			t.Errorf("Snapshot err = %v, want ErrSnapshotUnsupported", err)
		}
		if err := s.Restore([]byte("{}")); !errors.Is(err, ErrSnapshotUnsupported) {
			t.Errorf("Restore err = %v, want ErrSnapshotUnsupported", err)
		}
	})
	t.Run("finished", func(t *testing.T) {
		s := mk("a")
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Snapshot(); !errors.Is(err, ErrSessionFinished) {
			t.Errorf("err = %v, want ErrSessionFinished", err)
		}
	})
	t.Run("fingerprint mismatch", func(t *testing.T) {
		blob, err := mk("a").Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := mk("b").Restore(blob); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		s := mk("a")
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		tampered := strings.Replace(string(blob), fmt.Sprintf(`"version":%d`, CheckpointVersion), `"version":99`, 1)
		if tampered == string(blob) {
			t.Fatal("version field not found in checkpoint")
		}
		if err := s.Restore([]byte(tampered)); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("garbage blob", func(t *testing.T) {
		if err := mk("a").Restore([]byte("not json")); err == nil {
			t.Error("garbage checkpoint accepted")
		}
	})
}

func TestCheckpointIsSelfDescribing(t *testing.T) {
	cfg := testConfig()
	s, err := NewSession(cfg, &snapController{scriptController{name: "desc", gbef: 4}}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Version != CheckpointVersion {
		t.Errorf("version = %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.ConfigHash != s.ConfigHash() {
		t.Errorf("hash = %s, want %s", cp.ConfigHash, s.ConfigHash())
	}
	if cp.Controller != "desc" || cp.Horizon != 4 {
		t.Errorf("identity fields = %q/%d", cp.Controller, cp.Horizon)
	}
}
