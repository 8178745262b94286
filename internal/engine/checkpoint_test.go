package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

// streamArm is one streaming policy configuration: the arms dpss-serve
// runs, with the stream benchmark's four-unit fleet.
type streamArm struct {
	name   string
	policy Policy
	opts   Options
}

func streamArms() []streamArm {
	def := DefaultOptions()
	fleet := DefaultOptions()
	fleet.CommitWindow = 12
	fleet.Fleet = []UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.3, FuelUSDPerMWh: 38, StartupUSD: 20, CO2KgPerMWh: 700},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, StartupUSD: 10, CO2KgPerMWh: 500},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 52, FuelQuadUSD: 4, CO2KgPerMWh: 400},
		{CapacityMW: 0.1, FuelUSDPerMWh: 60, StartupLagSlots: 1, CO2KgPerMWh: 300},
	}
	noise := DefaultOptions()
	noise.ObservationNoise = 0.5
	noise.NoiseSeed = 7
	return []streamArm{
		{"smartdpss", PolicySmartDPSS, def},
		{"smartdpss-fleet", PolicySmartDPSS, fleet},
		{"lyapunov", PolicyLyapunov, def},
		{"impatient", PolicyImpatient, def},
		{"smartdpss-noise", PolicySmartDPSS, noise},
	}
}

func (a streamArm) session(t testing.TB, horizon int) *Session {
	t.Helper()
	s, err := NewSession(a.policy, a.opts, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func dayTraces(t testing.TB, days int) *Traces {
	t.Helper()
	tc := DefaultTraceConfig()
	tc.Days = days
	traces, err := GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// stepTo steps and commits s up to slot.
func stepTo(t testing.TB, s *Session, traces *Traces, slot int) {
	t.Helper()
	for s.Slot() < slot {
		if _, err := s.Step(traces.InputAt(s.Slot())); err != nil {
			t.Fatalf("step %d: %v", s.Slot(), err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatalf("commit %d: %v", s.Slot(), err)
		}
	}
}

func snapshot(t testing.TB, s *Session) []byte {
	t.Helper()
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotMatchesMarshalEverySlot: at every slot of every streaming
// arm, Snapshot writes exactly the bytes json.Marshal writes for the
// session's Checkpoint value.
func TestSnapshotMatchesMarshalEverySlot(t *testing.T) {
	traces := dayTraces(t, 3)
	for _, arm := range streamArms() {
		s := arm.session(t, traces.Horizon())
		for {
			got := snapshot(t, s)
			cp, err := s.inner.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(&cp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s slot %d: Snapshot differs from json.Marshal:\n got: %s\nwant: %s",
					arm.name, s.Slot(), got, want)
			}
			if s.Done() {
				break
			}
			stepTo(t, s, traces, s.Slot()+1)
		}
	}
}

// mangle rewrites the last match of pattern in a checkpoint.
func mangle(t *testing.T, blob []byte, pattern, repl string) []byte {
	t.Helper()
	locs := regexp.MustCompile(pattern).FindAllIndex(blob, -1)
	if len(locs) == 0 {
		t.Fatalf("checkpoint has no %s", pattern)
	}
	last := locs[len(locs)-1]
	return []byte(string(blob[:last[0]]) + repl + string(blob[last[1]:]))
}

// TestRestoreFailureLeavesSessionUnchanged: a checkpoint whose last
// component fails its check — the controller's state, one fleet unit,
// the noise wrapper's inner state — is rejected whole. The session keeps
// its own state byte for byte and still finishes like a session that
// never saw the bad checkpoint.
func TestRestoreFailureLeavesSessionUnchanged(t *testing.T) {
	traces := dayTraces(t, 5)
	arms := streamArms()
	for _, tc := range []struct {
		arm           streamArm
		pattern, repl string
	}{
		{arms[0], `"qT":[-0-9.e]+`, `"qT":"mangled"`},
		{arms[1], `"countdown":[0-9]+`, `"countdown":99`},
		{arms[4], `"qT":[-0-9.e]+`, `"qT":"mangled"`},
	} {
		t.Run(tc.arm.name, func(t *testing.T) {
			src := tc.arm.session(t, traces.Horizon())
			stepTo(t, src, traces, 50)
			bad := mangle(t, snapshot(t, src), tc.pattern, tc.repl)

			s := tc.arm.session(t, traces.Horizon())
			stepTo(t, s, traces, 100)
			before := snapshot(t, s)
			if err := s.Restore(bad); err == nil {
				t.Fatal("mangled checkpoint restored")
			}
			if after := snapshot(t, s); !bytes.Equal(after, before) {
				t.Fatalf("failed Restore changed the session:\nbefore: %s\n after: %s", before, after)
			}

			ref := tc.arm.session(t, traces.Horizon())
			stepTo(t, ref, traces, traces.Horizon())
			stepTo(t, s, traces, traces.Horizon())
			want, err := ref.Finish()
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if reportJSON(t, got) != reportJSON(t, want) {
				t.Error("session finished differently after a failed Restore")
			}
		})
	}
}

// TestRestoreChecksSessionHorizon: a checkpoint that claims a horizon
// other than the session's is rejected, even with the session's config
// hash, so a 48-slot session never reports slot 5000.
func TestRestoreChecksSessionHorizon(t *testing.T) {
	traces := dayTraces(t, 2)
	arm := streamArms()[0]
	src := arm.session(t, traces.Horizon())
	stepTo(t, src, traces, 10)
	blob := string(snapshot(t, src))
	for _, edit := range [][2]string{
		{`"slot":10,"horizon":48`, `"slot":5000,"horizon":9999`},
		{`"slot":10,"horizon":48`, `"slot":10,"horizon":9999`},
	} {
		bad := strings.Replace(blob, edit[0], edit[1], 1)
		if bad == blob {
			t.Fatalf("checkpoint lacks %s", edit[0])
		}
		s := arm.session(t, traces.Horizon())
		if err := s.Restore([]byte(bad)); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: err = %v, want ErrSnapshotMismatch (session at slot %d of %d)",
				edit[1], err, s.Slot(), s.Horizon())
		}
	}
}

// TestRestoreBoundsNoiseDrawCount: the noise wrapper replays its
// recorded draws one by one, so a draw count beyond what the horizon
// can consume is rejected up front instead of spinning for seconds, or
// forever.
func TestRestoreBoundsNoiseDrawCount(t *testing.T) {
	traces := dayTraces(t, 2)
	arm := streamArms()[4]
	src := arm.session(t, traces.Horizon())
	stepTo(t, src, traces, 10)
	blob := snapshot(t, src)
	for _, draws := range []string{"300000000", "18446744073709551615"} {
		bad := mangle(t, blob, `"draws":[0-9]+`, `"draws":`+draws)
		s := arm.session(t, traces.Horizon())
		start := time.Now()
		err := s.Restore(bad)
		if !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("draws %s: err = %v after %v, want ErrSnapshotMismatch", draws, err, time.Since(start))
		}
	}
}

// TestSnapshotAllocs pins the checkpoint of a mid-run SmartDPSS session
// at two allocations (the returned bytes and the backlog's cohort list;
// the reflective encoder made five).
func TestSnapshotAllocs(t *testing.T) {
	traces := dayTraces(t, 3)
	s := streamArms()[0].session(t, traces.Horizon())
	stepTo(t, s, traces, traces.Horizon()/2)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("Snapshot allocates %v times, want 2", allocs)
	}
}

// FuzzRestore feeds mutated and truncated checkpoints to Restore on a
// mid-run session of the arm that pick selects. Each input is an edit
// of that arm's day-one checkpoint: the bytes [at, at+del) are replaced
// by patch, so the full checkpoint is (0, 0, nil) and its truncation at
// n is (n, ∞, nil). Keeping the multi-KB checkpoint out of the fuzz
// input keeps inputs short, and the fuzzer's minimizer, quadratic in
// input length, fast. Restore must never panic; a rejected checkpoint
// must leave the session's Snapshot bytes as they were; an accepted one
// must be a fixed point of Snapshot → Restore on a fresh session →
// Snapshot, and the session must step through its remaining slots
// without panicking.
func FuzzRestore(f *testing.F) {
	traces := dayTraces(f, 2)
	horizon := traces.Horizon()
	arms := streamArms()
	bases := make([][]byte, len(arms))       // restored before each input
	checkpoints := make([][]byte, len(arms)) // what inputs edit
	for i, arm := range arms {
		s := arm.session(f, horizon)
		stepTo(f, s, traces, 12)
		bases[i] = snapshot(f, s)
		stepTo(f, s, traces, 24)
		checkpoints[i] = snapshot(f, s)
		f.Add(uint8(i), uint16(0), uint16(0), []byte(nil))
		f.Add(uint8(i), uint16(len(checkpoints[i])/2), uint16(math.MaxUint16), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, pick uint8, at, del uint16, patch []byte) {
		i := int(pick) % len(arms)
		cp := checkpoints[i]
		start := min(int(at), len(cp))
		end := min(start+int(del), len(cp))
		data := append(append(append([]byte(nil), cp[:start]...), patch...), cp[end:]...)

		s := arms[i].session(t, horizon)
		if err := s.Restore(bases[i]); err != nil {
			t.Fatal(err)
		}
		before := snapshot(t, s)
		if err := s.Restore(data); err != nil {
			if after := snapshot(t, s); !bytes.Equal(after, before) {
				t.Fatalf("rejected checkpoint (%v) changed the session", err)
			}
			return
		}
		first := snapshot(t, s)
		fresh := arms[i].session(t, horizon)
		if err := fresh.Restore(first); err != nil {
			t.Fatalf("re-restoring an accepted checkpoint: %v", err)
		}
		if second := snapshot(t, fresh); !bytes.Equal(second, first) {
			t.Fatalf("Snapshot → Restore → Snapshot is not a fixed point:\n first: %s\nsecond: %s", first, second)
		}
		for s.Slot() < horizon {
			if _, err := s.Step(traces.InputAt(s.Slot())); err != nil {
				return
			}
			if _, err := s.Commit(); err != nil {
				return
			}
		}
	})
}

// BenchmarkSnapshot measures one checkpoint of a mid-week SmartDPSS
// session: the sim rung of dpss-serve's periodic checkpoint. A warm-up
// checkpoint outside the timed loop pays the session's one-time costs
// (the options fingerprint, the encoder's first buffer), so even a short
// run records the steady state that TestSnapshotAllocs pins.
func BenchmarkSnapshot(b *testing.B) {
	traces := dayTraces(b, 7)
	s := streamArms()[0].session(b, traces.Horizon())
	stepTo(b, s, traces, traces.Horizon()/2)
	snapshot(b, s)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore measures restoring that checkpoint onto a session of
// the same configuration: the cost of a dpss-serve resume. As in
// BenchmarkSnapshot, one warm-up restore runs outside the timed loop.
func BenchmarkRestore(b *testing.B) {
	traces := dayTraces(b, 7)
	s := streamArms()[0].session(b, traces.Horizon())
	stepTo(b, s, traces, traces.Horizon()/2)
	blob := snapshot(b, s)
	if err := s.Restore(blob); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := s.Restore(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionSlotAllocatesNothing pins the steady-state slot loop at zero
// allocations per Step+Commit: for the default SmartDPSS session, for
// the fleet arm of BenchmarkFleetDispatch, and for eight quadratic-curve
// units under a 12-slot commitment window, whose 19 source legs take
// the merit-order sort past its insertion-sort cutoff.
func TestSessionSlotAllocatesNothing(t *testing.T) {
	quad := DefaultOptions()
	quad.CommitWindow = 12
	for i := range 8 {
		quad.Fleet = append(quad.Fleet, UnitSpec{
			CapacityMW: 0.15, MinLoadFrac: 0.2, FuelUSDPerMWh: 30 + 4*float64(i), FuelQuadUSD: 6, StartupUSD: 5,
		})
	}
	arms := []streamArm{streamArms()[0], streamArms()[1], {"smartdpss-quad8", PolicySmartDPSS, quad}}
	traces := dayTraces(t, 31)
	month := traces.Horizon()
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			s := arm.session(t, month)
			stepTo(t, s, traces, month/2)
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := s.Step(traces.InputAt(s.Slot())); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("a slot allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkSessionSlot measures one Step+Commit of a streaming SmartDPSS
// session from mid-month on: the session-slot rung beneath every batch
// replay, geo site and dpss-serve ingest. The month's inputs repeat past
// its end, so any iteration count stays in the steady state, where a
// slot allocates nothing.
func BenchmarkSessionSlot(b *testing.B) {
	traces := dayTraces(b, 31)
	month := traces.Horizon()
	s := streamArms()[0].session(b, month/2+b.N)
	stepTo(b, s, traces, month/2)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := s.Step(traces.InputAt(s.Slot() % month)); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
